// Open-addressing hash table keyed by IPv4 source address, replacing
// std::unordered_map on the detector's per-packet path; the federation
// stage keeps its per-source site masks in one too. The chained map cost
// one pointer chase (node allocation) plus a modulo per lookup; this table
// keeps keys and slot states in two flat arrays, so the hot find-or-insert
// is a multiply-shift hash, one key-array probe (almost always a hit on
// the first slot at the working load factor), and a direct index into the
// value array.
//
// Values are plain data (trivially copyable): erase_if only tombstones a
// slot and leaves its bytes in place, and find_or_insert resets a slot's
// value when it claims one. Removal is one in-place pass (erase_if); the
// table rehashes when full + tombstone slots pass 3/4 of capacity, which
// also garbage-collects the tombstones — after a mass erase (an hour sweep
// of one-packet flood sources) that rehash keeps the capacity instead of
// doubling it. Iteration order is the slot order — callers that need
// deterministic event order (the detector's expiry sweep) sort what they
// collect.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace exiot::flow {

template <typename V>
class SourceTable {
  static_assert(std::is_trivially_copyable_v<V>,
                "erase_if leaves tombstoned values in place");

 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (0 before the first insert; a power of two after).
  std::size_t capacity() const { return state_.size(); }

  /// Returns the value for `key`, default-constructing it on first use
  /// (the unordered_map operator[] contract the detector relies on).
  V& find_or_insert(std::uint32_t key) {
    if (used_ * 4 >= capacity() * 3) grow();
    const std::size_t mask = capacity() - 1;
    std::size_t i = hash(key) & mask;
    std::size_t first_tomb = kNone;
    while (true) {
      const std::uint8_t st = state_[i];
      if (st == kFull) {
        if (keys_[i] == key) return values_[i];
      } else if (st == kTomb) {
        if (first_tomb == kNone) first_tomb = i;
      } else {  // kEmpty: key is absent; claim a slot.
        if (first_tomb != kNone) {
          i = first_tomb;  // Reuse the tombstone (used_ already counts it).
        } else {
          ++used_;
        }
        state_[i] = kFull;
        keys_[i] = key;
        values_[i] = V{};
        ++size_;
        return values_[i];
      }
      i = (i + 1) & mask;
    }
  }

  /// The value for `key`, or nullptr when it is absent (no insert).
  const V* find(std::uint32_t key) const {
    if (size_ == 0) return nullptr;
    const std::size_t mask = capacity() - 1;
    for (std::size_t i = hash(key) & mask; state_[i] != kEmpty;
         i = (i + 1) & mask) {
      if (state_[i] == kFull && keys_[i] == key) return &values_[i];
    }
    return nullptr;
  }

  /// One in-place pass in slot order: tombstones every entry for which
  /// `pred(key, const V&)` returns true. The predicate must not insert or
  /// erase.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull && pred(keys_[i], std::as_const(values_[i]))) {
        state_[i] = kTomb;
        --size_;
      }
    }
  }

  /// Visits every (key, value) pair in slot order. The callback must not
  /// insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (state_[i] == kFull) fn(keys_[i], values_[i]);
    }
  }

  void clear() {
    state_.assign(state_.size(), kEmpty);
    size_ = 0;
    used_ = 0;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTomb = 2;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kInitialCapacity = 1024;

  static std::size_t hash(std::uint32_t key) {
    // Multiply-shift (Fibonacci hashing): telescope source addresses are
    // structured, the golden-ratio multiply spreads them across slots.
    return static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> 32);
  }

  void grow() {
    const std::size_t new_cap =
        capacity() == 0 ? kInitialCapacity
                        : (size_ * 4 >= capacity() * 3 ? capacity() * 2
                                                       : capacity());
    // Rehashing with unchanged capacity still pays off: it sweeps out the
    // tombstones that triggered the growth check.
    std::vector<std::uint32_t> old_keys = std::move(keys_);
    std::vector<std::uint8_t> old_state = std::move(state_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_cap, 0);
    state_.assign(new_cap, kEmpty);
    values_.clear();
    values_.resize(new_cap);
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_state.size(); ++i) {
      if (old_state[i] != kFull) continue;
      std::size_t j = hash(old_keys[i]) & mask;
      while (state_[j] == kFull) j = (j + 1) & mask;
      state_[j] = kFull;
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
    used_ = size_;
  }

  std::vector<std::uint32_t> keys_;
  std::vector<std::uint8_t> state_;
  std::vector<V> values_;
  std::size_t size_ = 0;
  std::size_t used_ = 0;  // Full + tombstone slots (probe-chain length cap).
};

}  // namespace exiot::flow
