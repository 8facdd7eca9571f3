#include "inputs.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <unordered_set>

namespace bench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t x = seed ^ (tag * 0x9e3779b97f4a7c15ull);
  return splitmix64(x);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> generate_rmat(
    unsigned scale, unsigned edge_factor, std::uint64_t seed) {
  constexpr double a = 0.57, b = 0.19, c = 0.19;
  Rng rng(seed);
  const std::uint64_t m = static_cast<std::uint64_t>(edge_factor) << scale;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(m);
  for (std::uint64_t e = 0; e < m; ++e) {
    std::uint32_t u = 0, v = 0;
    for (unsigned level = 0; level < scale; ++level) {
      // Quadrants a, b, c, d = (0,0), (0,1), (1,0), (1,1).
      const double r = rng.uniform();
      const std::uint32_t bit = 1u << (scale - 1 - level);
      if (r >= a + b) u |= bit;
      if ((r >= a && r < a + b) || r >= a + b + c) v |= bit;
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

void write_snap_text(
    const std::string& path,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    const std::string& header) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "w"));
  if (!f) throw std::runtime_error("cannot write " + path);
  std::string buf = "# " + header + "\n";
  buf.reserve(1 << 20);
  char num[16];
  for (const auto& [u, v] : edges) {
    buf.append(num, std::to_chars(num, num + sizeof(num), u).ptr);
    buf.push_back(' ');
    buf.append(num, std::to_chars(num, num + sizeof(num), v).ptr);
    buf.push_back('\n');
    if (buf.size() > (1u << 20) - 32) {
      if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size())
        throw std::runtime_error("short write to " + path);
      buf.clear();
    }
  }
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size() ||
      std::fflush(f.get()) != 0)
    throw std::runtime_error("short write to " + path);
}

Expected reference_triangles(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& raw,
    std::uint32_t num_ids) {
  // Undirected simple edges as (min, max), then the single low-degree pass.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(raw.size());
  for (auto [u, v] : raw)
    if (u != v) edges.emplace_back(std::min(u, v), std::max(u, v));
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<std::uint32_t> deg(num_ids, 0);
  for (auto [u, v] : edges) ++deg[u], ++deg[v];
  std::erase_if(edges, [&](const auto& e) {
    return deg[e.first] < 2 || deg[e.second] < 2;
  });
  std::vector<bool> kept(num_ids);
  for (std::uint32_t v = 0; v < num_ids; ++v) kept[v] = deg[v] >= 2;
  std::fill(deg.begin(), deg.end(), 0);
  for (auto [u, v] : edges) ++deg[u], ++deg[v];

  // Forward algorithm: orient each edge toward the larger (degree, id), so
  // every triangle is found exactly once from its smallest vertex.
  const auto before = [&](std::uint32_t x, std::uint32_t y) {
    return deg[x] != deg[y] ? deg[x] < deg[y] : x < y;
  };
  std::vector<std::uint64_t> off(num_ids + 1, 0);
  for (auto [u, v] : edges) ++off[(before(u, v) ? u : v) + 1];
  for (std::uint32_t v = 0; v < num_ids; ++v) off[v + 1] += off[v];
  std::vector<std::uint32_t> out(edges.size());
  {
    std::vector<std::uint64_t> fill(off.begin(), off.end() - 1);
    for (auto [u, v] : edges) {
      const bool uv = before(u, v);
      out[fill[uv ? u : v]++] = uv ? v : u;
    }
  }
  std::vector<std::uint64_t> tri(num_ids, 0);
  std::vector<std::uint32_t> stamp(num_ids, 0);
  for (std::uint32_t u = 0; u < num_ids; ++u) {
    for (std::uint64_t i = off[u]; i < off[u + 1]; ++i) stamp[out[i]] = u + 1;
    for (std::uint64_t i = off[u]; i < off[u + 1]; ++i) {
      const std::uint32_t v = out[i];
      for (std::uint64_t k = off[v]; k < off[v + 1]; ++k) {
        const std::uint32_t w = out[k];
        if (stamp[w] == u + 1) ++tri[u], ++tri[v], ++tri[w];
      }
    }
  }

  Expected e;
  e.slots = 2 * edges.size();
  std::uint64_t sum = 0;
  for (std::uint32_t v = 0; v < num_ids; ++v) {
    if (!kept[v]) continue;
    ++e.vertices;
    sum += tri[v];
    e.degree_t.emplace_back(deg[v], 2 * tri[v]);
  }
  e.triangles = sum / 3;
  std::sort(e.degree_t.begin(), e.degree_t.end());
  return e;
}

void write_expected(const std::string& path, const Expected& e) {
  std::ofstream f(path);
  f << "vertices " << e.vertices << "\nslots " << e.slots << "\ntriangles "
    << e.triangles << "\npairs " << e.degree_t.size() << "\n";
  for (const auto& [d, t] : e.degree_t) f << d << ' ' << t << '\n';
  f.flush();
  if (!f) throw std::runtime_error("cannot write " + path);
}

Expected read_expected(const std::string& path) {
  std::ifstream f(path);
  Expected e;
  std::string key;
  std::size_t pairs = 0;
  f >> key >> e.vertices >> key >> e.slots >> key >> e.triangles >> key >>
      pairs;
  e.degree_t.resize(pairs);
  for (auto& [d, t] : e.degree_t) f >> d >> t;
  if (!f) throw std::runtime_error("malformed expected-output file " + path);
  return e;
}

std::uint64_t digest(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [d, t] : pairs) mix(d), mix(t);
  return h;
}

std::vector<atlc::serve::ServeEpoch> make_serve_stream(
    const atlc::graph::CSRGraph& g, const ServeStreamConfig& cfg,
    std::uint64_t seed) {
  using atlc::serve::Query;
  using atlc::serve::QueryKind;
  using atlc::stream::EdgeUpdate;
  using atlc::stream::Op;
  const std::uint32_t n = g.num_vertices();
  Rng rng(seed);

  // One rank -> vertex permutation for the whole stream: the hot set stays
  // put across epochs, so hot-cache entries are reused from epoch to epoch
  // until a batch stales them.
  std::vector<std::uint32_t> vertex_of_rank(n);
  for (std::uint32_t v = 0; v < n; ++v) vertex_of_rank[v] = v;
  for (std::uint32_t i = n; i > 1; --i)
    std::swap(vertex_of_rank[i - 1], vertex_of_rank[rng.below(i)]);
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::uint32_t r = 0; r < n; ++r)
    cdf[r] = acc += 1.0 / std::pow(static_cast<double>(r) + 1.0, cfg.zipf_skew);
  for (double& c : cdf) c /= acc;

  const auto key = [](std::uint32_t a, std::uint32_t b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
  };
  std::vector<std::uint64_t> present;
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t v : g.neighbors(u))
      if (u < v) present.push_back(key(u, v));
  std::unordered_set<std::uint64_t> present_set(present.begin(),
                                                present.end());

  std::vector<atlc::serve::ServeEpoch> epochs(cfg.epochs);
  for (auto& ep : epochs) {
    for (std::size_t q = 0; q < cfg.queries_per_epoch; ++q) {
      const double r = rng.uniform();
      const auto rank = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
      const double k = rng.uniform();
      const QueryKind kind = k < cfg.lcc_fraction ? QueryKind::Lcc
                             : k < cfg.lcc_fraction + cfg.common_fraction
                                 ? QueryKind::TopKCommon
                                 : QueryKind::TopKAdamicAdar;
      ep.queries.push_back(
          Query{kind, vertex_of_rank[std::min(rank, n - 1)], cfg.topk});
    }
    for (std::size_t i = 0; i < cfg.batch_size; ++i) {
      if (rng.uniform() < cfg.insert_fraction || present.empty()) {
        std::uint32_t u = 0, v = 0;
        do {
          u = static_cast<std::uint32_t>(rng.below(n));
          v = static_cast<std::uint32_t>(rng.below(n));
        } while (u == v || present_set.contains(key(u, v)));
        present.push_back(key(u, v));
        present_set.insert(key(u, v));
        ep.updates.push_back(EdgeUpdate{u, v, Op::Insert});
      } else {
        const std::size_t i_del = rng.below(present.size());
        const std::uint64_t k_del = present[i_del];
        present[i_del] = present.back();
        present.pop_back();
        present_set.erase(k_del);
        ep.updates.push_back(EdgeUpdate{static_cast<std::uint32_t>(k_del >> 32),
                                        static_cast<std::uint32_t>(k_del),
                                        Op::Delete});
      }
    }
  }
  return epochs;
}

void write_serve_stream(const std::string& path,
                        const std::vector<atlc::serve::ServeEpoch>& epochs) {
  std::ofstream f(path);
  f << "epochs " << epochs.size() << '\n';
  for (const auto& ep : epochs) {
    f << "epoch " << ep.queries.size() << ' ' << ep.updates.size() << '\n';
    for (const auto& q : ep.queries)
      f << static_cast<unsigned>(q.kind) << ' ' << q.v << ' ' << q.k << '\n';
    for (const auto& u : ep.updates)
      f << static_cast<unsigned>(u.op) << ' ' << u.u << ' ' << u.v << '\n';
  }
  f.flush();
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::vector<atlc::serve::ServeEpoch> read_serve_stream(const std::string& path) {
  std::ifstream f(path);
  std::string key;
  std::size_t n = 0;
  f >> key >> n;
  std::vector<atlc::serve::ServeEpoch> epochs(f ? n : 0);
  for (auto& ep : epochs) {
    std::size_t nq = 0, nu = 0;
    f >> key >> nq >> nu;
    ep.queries.resize(f ? nq : 0);
    for (auto& q : ep.queries) {
      unsigned kind = 0;
      f >> kind >> q.v >> q.k;
      q.kind = static_cast<atlc::serve::QueryKind>(kind);
    }
    ep.updates.resize(f ? nu : 0);
    for (auto& u : ep.updates) {
      unsigned op = 0;
      f >> op >> u.u >> u.v;
      u.op = static_cast<atlc::stream::Op>(op);
    }
  }
  if (!f) throw std::runtime_error("malformed serving stream " + path);
  return epochs;
}

void write_answers(const std::string& path,
                   const std::vector<atlc::serve::QueryAnswer>& answers) {
  std::ofstream f(path);
  f << "answers " << answers.size() << '\n';
  for (const auto& a : answers) {
    f << a.id << ' ' << static_cast<unsigned>(a.kind) << ' ' << a.v << ' '
      << std::bit_cast<std::uint64_t>(a.lcc) << ' ' << a.topk.size();
    for (const auto& r : a.topk)
      f << ' ' << r.v << ' ' << std::bit_cast<std::uint64_t>(r.score);
    f << '\n';
  }
  f.flush();
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::vector<atlc::serve::QueryAnswer> read_answers(const std::string& path) {
  std::ifstream f(path);
  std::string key;
  std::size_t n = 0;
  f >> key >> n;
  std::vector<atlc::serve::QueryAnswer> answers(f ? n : 0);
  for (auto& a : answers) {
    unsigned kind = 0;
    std::uint64_t lcc = 0;
    std::size_t k = 0;
    f >> a.id >> kind >> a.v >> lcc >> k;
    a.kind = static_cast<atlc::serve::QueryKind>(kind);
    a.lcc = std::bit_cast<double>(lcc);
    a.topk.resize(f ? k : 0);
    for (auto& r : a.topk) {
      std::uint64_t score = 0;
      f >> r.v >> score;
      r.score = std::bit_cast<double>(score);
    }
  }
  if (!f) throw std::runtime_error("malformed answers file " + path);
  return answers;
}

}  // namespace bench
