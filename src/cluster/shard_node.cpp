#include "cluster/shard_node.h"

namespace griffin::cluster {

ShardNode::ShardNode(index::IndexShard shard, sim::HardwareSpec hw,
                     core::HybridOptions opt)
    : shard_(std::move(shard)),
      engine_(shard_.index, hw, opt),
      absent_cost_(sim::Duration::from_us(hw.absent_term_probe_us)) {}

core::QueryResult ShardNode::execute(const core::Query& q) {
  if (!shard_.translate_terms(q.terms, scratch_terms_)) {
    core::QueryResult empty;
    empty.metrics.total = absent_cost_;
    return empty;
  }
  core::Query local = q;
  local.terms = scratch_terms_;
  return engine_.execute(local);
}

}  // namespace griffin::cluster
