// All-to-all and variable-count collectives.
//
// Completes the runtime's collective surface: alltoall (Bruck for small
// messages, pairwise-exchange for large) and the v-variants (allgatherv,
// gatherv, scatterv) with per-rank block sizes. These are substrate-grade
// operations (miniAMR redistributes blocks with alltoallv-like patterns)
// and exercise the transport with the densest traffic pattern there is.
#pragma once

#include "coll/coll.hpp"

namespace dpml::coll {

// ---- Alltoall (equal blocks) ----

// Every design takes CollArgs with `count` elements of `dt` per block:
// send and recv span comm-size blocks (block i goes to / comes from rank i).

// The "auto" rule: bruck up to 1 KiB blocks, pairwise above.
sim::CoTask<void> alltoall(CollArgs a);
// Bruck: ceil(lg p) rounds of aggregated blocks — latency-optimal.
sim::CoTask<void> alltoall_bruck(CollArgs a);
// Pairwise exchange: p-1 rounds with XOR/shift partners — bandwidth-optimal.
sim::CoTask<void> alltoall_pairwise(CollArgs a);

// ---- Variable-count gather/scatter/allgather ----

struct GathervArgs {
  Rank* rank = nullptr;
  const Comm* comm = nullptr;
  int root = 0;
  std::vector<std::size_t> block_bytes;  // size p: contribution of each rank
  ConstBytes send{};                     // my block (block_bytes[me])
  MutBytes recv{};                       // root: sum of block_bytes
  int tag_base = 0;

  std::size_t total_bytes() const;
  std::size_t offset_of(int r) const;  // byte offset of rank r's block
  void check() const;
};

// Direct gatherv: every rank sends its block to the root (the standard
// implementation for irregular counts).
sim::CoTask<void> gatherv(GathervArgs a);

struct AllgathervArgs {
  Rank* rank = nullptr;
  const Comm* comm = nullptr;
  std::vector<std::size_t> block_bytes;  // size p
  ConstBytes send{};
  MutBytes recv{};  // sum of block_bytes on every rank
  int tag_base = 0;

  std::size_t total_bytes() const;
  std::size_t offset_of(int r) const;
  void check() const;
};

// Ring allgatherv (p-1 neighbour steps with per-rank sizes).
sim::CoTask<void> allgatherv_ring(AllgathervArgs a);

struct ScattervArgs {
  Rank* rank = nullptr;
  const Comm* comm = nullptr;
  int root = 0;
  std::vector<std::size_t> block_bytes;  // size p
  ConstBytes send{};                     // root: sum of block_bytes
  MutBytes recv{};                       // my block
  int tag_base = 0;

  std::size_t total_bytes() const;
  std::size_t offset_of(int r) const;
  void check() const;
};

// Direct scatterv from the root.
sim::CoTask<void> scatterv(ScattervArgs a);

}  // namespace dpml::coll
