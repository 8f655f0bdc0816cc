// A mutex-guarded LIFO free list of heap objects.
//
// The fast evaluators keep their row caches and evaluation scratch here:
// every call checks one object out for its duration and gives it back at
// the end, so objects live exactly as long as the free list that owns them.
// LIFO order hands a single-threaded caller back the object it returned
// last; concurrent callers each hold their own for the length of a call.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace mheta::util {

template <typename T>
class FreeList {
 public:
  /// The most recently returned object, or a fresh one when none is free.
  std::unique_ptr<T> take() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<T> out = std::move(free_.back());
        free_.pop_back();
        return out;
      }
    }
    return std::make_unique<T>();
  }

  /// Returns `obj` for reuse by the next take().
  void give(std::unique_ptr<T> obj) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(obj));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<T>> free_;  // guarded by mu_
};

}  // namespace mheta::util
