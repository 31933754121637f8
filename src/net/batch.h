// Packet batches: the unit the capture->detect path moves. A PacketBatch
// is a run of full decoded rows in arrival order; every consumer (the
// federation filter, the ingest scatter, the detector, sampling, the
// organizer, the trace writer) reads the rows themselves.
//
// Filling discipline: `push_back` copies a finished packet; the zero-copy
// variant is `append_slot()` (write every field of the returned row)
// followed by `commit_back()` — or `abandon_back()` to discard the row,
// e.g. when a merge produced a packet past the window edge.
#pragma once

#include <cstddef>
#include <vector>

#include "net/packet.h"

namespace exiot::net {

class PacketBatch {
 public:
  std::size_t size() const { return pkts_.size(); }
  bool empty() const { return pkts_.empty(); }
  void reserve(std::size_t n) { pkts_.reserve(n); }
  void clear() { pkts_.clear(); }

  /// Appends a finished packet (copies the row).
  void push_back(const Packet& pkt) { pkts_.push_back(pkt); }

  /// Zero-copy append: fill every field of the returned row, then call
  /// commit_back() or abandon_back() (discards).
  Packet& append_slot() { return pkts_.emplace_back(); }
  void commit_back() {}
  void abandon_back() { pkts_.pop_back(); }

  const Packet& operator[](std::size_t i) const { return pkts_[i]; }
  const std::vector<Packet>& packets() const { return pkts_; }

 private:
  std::vector<Packet> pkts_;
};

}  // namespace exiot::net
