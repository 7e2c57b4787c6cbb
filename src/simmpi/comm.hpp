// Communicators.
//
// A Comm is an ordered group of world ranks plus a context id. The context
// id isolates message matching between communicators (as in MPI); the DPML
// algorithms run one inter-node allreduce per leader index concurrently,
// each on its own context.
#pragma once

#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace dpml::simmpi {

class Comm {
 public:
  Comm() = default;
  Comm(int context, std::vector<int> world_ranks)
      : context_(context), ranks_(std::move(world_ranks)) {
    // An identity group (comm rank r is world rank r: the world, built
    // with every Machine) needs no index, so rank_of_world is a bounds
    // check. Any other group hashes its members, which keeps its index as
    // small as the group however large the world is.
    for (int i = 0; i < size() && identity_; ++i) identity_ = ranks_[i] == i;
    if (identity_) return;
    for (int i = 0; i < size(); ++i) index_[ranks_[i]] = i;
  }

  int context() const { return context_; }
  int size() const { return static_cast<int>(ranks_.size()); }

  // World rank of comm rank r.
  int world_rank(int r) const {
    DPML_CHECK(r >= 0 && r < size());
    return ranks_[r];
  }

  // Comm rank of a world rank; -1 if not a member.
  int rank_of_world(int w) const {
    if (identity_) return w >= 0 && w < size() ? w : -1;
    auto it = index_.find(w);
    return it == index_.end() ? -1 : it->second;
  }

  bool contains(int w) const { return rank_of_world(w) >= 0; }
  const std::vector<int>& ranks() const { return ranks_; }

 private:
  int context_ = 0;
  std::vector<int> ranks_;
  bool identity_ = true;
  std::unordered_map<int, int> index_;  // empty for an identity group
};

}  // namespace dpml::simmpi
