// A small intrusive-list LRU cache.
//
// Used by the evaluation fast path: the Predictor memoizes per-(memory, rows)
// memory plans and CachingObjective memoizes per-distribution predictions.
// Not internally synchronized — callers that share a cache across threads
// hold their own lock around get/put.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"

namespace mheta::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    MHETA_CHECK(capacity_ >= 1);
  }

  /// Returns the cached value and marks it most-recently-used, or nullptr.
  Value* get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Inserts (or overwrites) a value and marks it most-recently-used,
  /// evicting the least-recently-used entry if over capacity.
  void put(const Key& key, Value value) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      items_.splice(items_.begin(), items_, it->second);
      return;
    }
    if (items_.size() == capacity_) {
      index_.erase(items_.back().first);
      items_.pop_back();
      ++evictions_;
    }
    items_.emplace_front(key, std::move(value));
    index_[key] = items_.begin();
  }

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped to make room since construction (clear() not counted).
  std::size_t evictions() const { return evictions_; }

  void clear() {
    items_.clear();
    index_.clear();
  }

 private:
  std::size_t capacity_;
  std::size_t evictions_ = 0;
  std::list<std::pair<Key, Value>> items_;  // front = most recently used
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
};

}  // namespace mheta::util
