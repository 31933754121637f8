// Tournament (loser) tree for the telescope's k-way window merge
// (telescope::emit_window_rows, the synthesizer's only merge loop).
//
// A binary heap would cost a pop (sift-down) plus a push (sift-up) per
// emitted packet that changes the head, each moving 16-byte entries. A
// tournament tree replays exactly one leaf-to-root path per packet
// instead, and the loser-tree variant stores the *loser* of the match
// played at each internal node, which buys two things:
//
//   - a replay is one comparison per level (winner trees need two child
//     reads per level to re-run each match);
//   - the losers stay in place, so a replay moves at most one 32-bit slot
//     index per level instead of sifting 16-byte heap entries.
//
// Note the root's stored loser is only the loser of the *final* match,
// not the global runner-up (the true second-best can sit in the winner's
// own half), so there is no sound O(1) "winner stays" check — every
// advance replays the path.
//
// Each step yields the strict minimum under (ts, host), and host indices
// are unique across slots, so the selection order is total: the emitted
// sequence is the canonical (ts, host_index) arrival order.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"

namespace exiot::telescope {

class WinnerTree {
 public:
  /// Key marking a slot as out of the window (or exhausted).
  static constexpr TimeMicros kDone =
      std::numeric_limits<TimeMicros>::max();

  /// Resets the tree to `n` slots, all closed. Slots must then be seeded
  /// with set_slot() and the tree finalized with rebuild().
  void assign(std::size_t n) {
    n_ = n;
    m_ = 2;
    while (m_ < n) m_ <<= 1;
    ts_.assign(m_, kDone);
    host_.assign(m_, std::numeric_limits<std::uint32_t>::max());
    loser_.assign(m_, 0);
    winner_ = 0;
  }

  /// Seeds one slot's merge key. Hosts must be unique across open slots —
  /// they are the deterministic tie-break for equal timestamps.
  void set_slot(std::size_t slot, TimeMicros ts, std::uint32_t host) {
    ts_[slot] = ts;
    host_[slot] = host;
  }

  /// Plays every match bottom-up, storing losers; O(m). Runs once per
  /// emitted window in the hot path, so the match scratch is a reused
  /// member, not a per-call allocation.
  void rebuild() {
#ifndef NDEBUG
    assert_hosts_unique();
#endif
    // win_[node] is the winner of the subtree at tree position `node`;
    // positions [m, 2m) are the leaves (slot = position - m).
    win_.resize(2 * m_);
    for (std::size_t i = 0; i < m_; ++i) {
      win_[m_ + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t node = m_ - 1; node >= 1; --node) {
      const std::uint32_t a = win_[node << 1];
      const std::uint32_t b = win_[(node << 1) | 1];
      const bool b_wins = less(b, a);
      win_[node] = b_wins ? b : a;
      loser_[node] = b_wins ? a : b;
    }
    winner_ = win_[1];
  }

  /// The winning slot (undefined when exhausted()).
  std::uint32_t top() const { return winner_; }
  bool exhausted() const { return n_ == 0 || ts_[winner_] == kDone; }

  /// Updates the key of `slot` and replays its leaf-to-root path: one
  /// comparison per level, nothing else moves. `slot` must be the current
  /// winner — replaying an arbitrary slot would not re-run the matches it
  /// lost elsewhere in the tree.
  void update(std::uint32_t slot, TimeMicros ts) {
    ts_[slot] = ts;
    replay(slot);
  }

  /// Permanently retires a slot from the merge.
  void close(std::uint32_t slot) { update(slot, kDone); }

 private:
  bool less(std::uint32_t a, std::uint32_t b) const {
    if (ts_[a] != ts_[b]) return ts_[a] < ts_[b];
    return host_[a] < host_[b];
  }

  /// Re-plays the matches on `slot`'s path: the walking candidate swaps
  /// with a stored loser whenever the loser beats it; what reaches the
  /// top is the new overall winner.
  void replay(std::uint32_t slot) {
    std::uint32_t cur = slot;
    for (std::size_t node = (m_ + slot) >> 1; node >= 1; node >>= 1) {
      if (less(loser_[node], cur)) {
        const std::uint32_t tmp = loser_[node];
        loser_[node] = cur;
        cur = tmp;
      }
    }
    winner_ = cur;
  }

#ifndef NDEBUG
  /// Debug check: hosts must be unique across open slots — they are the
  /// deterministic tie-break for equal timestamps, and a duplicate would
  /// make the selection order ill-defined.
  void assert_hosts_unique() {
    win_.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      if (ts_[i] != kDone) win_.push_back(host_[i]);
    }
    std::sort(win_.begin(), win_.end());
    assert(std::adjacent_find(win_.begin(), win_.end()) == win_.end() &&
           "WinnerTree: duplicate host among open slots");
  }
#endif

  std::size_t n_ = 0;  // Seeded slots.
  std::size_t m_ = 0;  // Leaf count: smallest power of two >= max(n, 2).
  std::uint32_t winner_ = 0;
  std::vector<TimeMicros> ts_;
  std::vector<std::uint32_t> host_;
  std::vector<std::uint32_t> loser_;  // loser_[node]: loser of that match.
  std::vector<std::uint32_t> win_;    // rebuild() match scratch, reused.
};

}  // namespace exiot::telescope
