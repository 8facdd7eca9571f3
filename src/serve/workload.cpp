#include "atlc/serve/workload.hpp"

#include <algorithm>
#include <cmath>

#include "atlc/graph/relabel.hpp"
#include "atlc/stream/update.hpp"
#include "atlc/util/check.hpp"

namespace atlc::serve {

ZipfSampler::ZipfSampler(VertexId n, double skew, std::uint64_t seed) {
  ATLC_CHECK(n > 0, "ZipfSampler: empty vertex range");
  cdf_.resize(n);
  double acc = 0.0;
  for (VertexId i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i) + 1.0, skew);
    cdf_[i] = acc;
  }
  const double total = cdf_.back();
  for (double& c : cdf_) c /= total;

  // Seeded rank-to-vertex permutation: traffic skew must not accidentally
  // coincide with degree skew (vertex ids correlate with degree in R-MAT
  // output).
  vertex_of_rank_ = graph::random_permutation(n, util::mix64(seed, 0x5a1fu));
}

VertexId ZipfSampler::sample(util::Xoshiro256& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return vertex_of_rank_[rank];
}

std::vector<ServeEpoch> generate_query_stream(const graph::CSRGraph& g,
                                              const QueryWorkloadConfig& cfg) {
  std::vector<ServeEpoch> epochs(cfg.num_epochs);

  // Update side first: reuse the streaming workload generator so serve
  // traffic exercises the exact same batch shapes as the PR 4 engine.
  if (cfg.batch_size > 0 && cfg.num_epochs > 0) {
    stream::WorkloadConfig wc;
    wc.num_batches = cfg.num_epochs;
    wc.batch_size = cfg.batch_size;
    wc.insert_fraction = cfg.insert_fraction;
    wc.seed = util::mix64(cfg.seed, 0xba7cu);
    std::vector<stream::Batch> batches = stream::generate_batches(g, wc);
    for (std::size_t e = 0; e < cfg.num_epochs; ++e)
      epochs[e].updates = std::move(batches[e]);
  }

  const ZipfSampler zipf(g.num_vertices(), cfg.zipf_skew,
                         util::mix64(cfg.seed, 0x21fu));
  util::Xoshiro256 rng(util::mix64(cfg.seed, 0x9e37u));
  for (std::size_t e = 0; e < cfg.num_epochs; ++e) {
    epochs[e].queries.reserve(cfg.queries_per_epoch);
    for (std::size_t q = 0; q < cfg.queries_per_epoch; ++q) {
      Query query;
      query.v = zipf.sample(rng);
      query.k = cfg.topk;
      const double mix = rng.next_double();
      if (mix < cfg.lcc_fraction) {
        query.kind = QueryKind::Lcc;
      } else if (mix < cfg.lcc_fraction + cfg.common_fraction) {
        query.kind = QueryKind::TopKCommon;
      } else {
        query.kind = QueryKind::TopKAdamicAdar;
      }
      epochs[e].queries.push_back(query);
    }
  }
  return epochs;
}

}  // namespace atlc::serve
