#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "relational/csv_loader.h"

namespace perfbench {

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

size_t SeededRng::ClampedNormal(double mean, double sd, size_t lo, size_t hi) {
  // Box-Muller; 1 - Uniform() is in (0, 1], so the log is finite.
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  const double raw = std::round(mean + sd * z);
  return static_cast<size_t>(std::clamp(raw, static_cast<double>(lo),
                                        static_cast<double>(hi)));
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(SeededRng& rng) const {
  const double u = rng.Uniform();
  const size_t i = std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

size_t CsvInput::Rows() const {
  size_t n = 0;
  for (const CsvTable& t : tables) n += t.rows;
  return n;
}

size_t CsvInput::Bytes() const {
  size_t n = 0;
  for (const CsvTable& t : tables) n += t.text.size();
  return n;
}

namespace {

CsvTable EntityTable(const std::string& name, const std::string& header,
                     const std::string& prefix, size_t count) {
  CsvTable t{name, header + "\n", count};
  for (size_t i = 0; i < count; ++i) {
    t.text += std::to_string(i) + "," + prefix + std::to_string(i) + "\n";
  }
  return t;
}

void AddPair(CsvTable& t, int64_t a, int64_t b) {
  t.text += std::to_string(a) + "," + std::to_string(b) + "\n";
  ++t.rows;
}

// `k` distinct Zipf-skewed ranks.
std::vector<int64_t> DistinctSample(SeededRng& rng, const Zipf& zipf,
                                    size_t k) {
  std::unordered_set<int64_t> picked;
  std::vector<int64_t> out;
  while (out.size() < k) {
    const int64_t v = static_cast<int64_t>(zipf.Sample(rng));
    if (picked.insert(v).second) out.push_back(v);
  }
  return out;
}

size_t Scaled(double base, double scale) {
  return std::max<size_t>(16, static_cast<size_t>(base * scale));
}

}  // namespace

CsvInput MakeTpchCsv(uint64_t seed, double scale) {
  SeededRng rng(seed);
  const size_t customers = Scaled(2000, scale);
  const size_t orders = Scaled(8000, scale);
  const size_t parts = static_cast<size_t>(60 * scale) + 20;
  const Zipf part_zipf(parts, 1.1);
  CsvInput in;
  in.tables.push_back(EntityTable("Customer", "custkey,name", "customer_",
                                  customers));
  CsvTable order_table{"Orders", "orderkey,custkey\n", 0};
  CsvTable line_table{"LineItem", "orderkey,partkey\n", 0};
  for (size_t o = 0; o < orders; ++o) {
    AddPair(order_table, static_cast<int64_t>(o),
            static_cast<int64_t>(rng.Bounded(customers)));
    const size_t k = rng.ClampedNormal(3.0, 1.5, 1, parts);
    for (int64_t p : DistinctSample(rng, part_zipf, k)) {
      AddPair(line_table, static_cast<int64_t>(o), p);
    }
  }
  in.tables.push_back(std::move(order_table));
  in.tables.push_back(std::move(line_table));
  return in;
}

CsvInput MakeImdbCsv(uint64_t seed, double scale) {
  SeededRng rng(seed);
  const size_t actors = Scaled(9000, scale);
  const size_t movies = Scaled(4000, scale);
  const Zipf actor_zipf(actors, 1.05);
  CsvInput in;
  in.tables.push_back(EntityTable("name", "id,person", "person_", actors));
  in.tables.push_back(EntityTable("title", "id,name", "movie_", movies));
  CsvTable cast{"cast_info", "person_id,movie_id\n", 0};
  for (size_t m = 0; m < movies; ++m) {
    const size_t k = rng.ClampedNormal(10.0, 5.0, 2, actors);
    for (int64_t a : DistinctSample(rng, actor_zipf, k)) {
      AddPair(cast, a, static_cast<int64_t>(m));
    }
  }
  in.tables.push_back(std::move(cast));
  return in;
}

DblpInput MakeDblpCsv(uint64_t seed, size_t num_authors, size_t pid_space) {
  SeededRng rng(seed);
  const Zipf author_zipf(num_authors, 1.1);
  DblpInput out;
  out.num_authors = num_authors;
  out.pid_space = static_cast<int64_t>(pid_space);
  out.csv.tables.push_back(
      EntityTable("Author", "id,name", "author_", num_authors));
  CsvTable pubs{"Pub", "pid,title\n", 0};
  CsvTable links{"AuthorPub", "aid,pid\n", 0};
  for (size_t p = 0; p < pid_space; ++p) {
    const int64_t pid = static_cast<int64_t>(p);
    const size_t k = rng.ClampedNormal(5.0, 2.5, 1, num_authors);
    std::vector<int64_t> authors = DistinctSample(rng, author_zipf, k);
    if (p % 8 == 7) {
      out.appends.push_back({pid, std::move(authors)});
      continue;
    }
    pubs.text += std::to_string(pid) + ",pub_" + std::to_string(pid) + "\n";
    ++pubs.rows;
    for (int64_t a : authors) AddPair(links, a, pid);
  }
  out.csv.tables.push_back(std::move(pubs));
  out.csv.tables.push_back(std::move(links));
  // Seeded append order (Fisher-Yates).
  for (size_t i = out.appends.size(); i > 1; --i) {
    std::swap(out.appends[i - 1], out.appends[rng.Bounded(i)]);
  }
  return out;
}

graphgen::Status Ingest(const CsvInput& input, graphgen::rel::Database& db,
                        Recorder& recorder) {
  std::vector<graphgen::rel::Table> tables;
  {
    auto span = recorder.Begin("relational.csv_parse", -1);
    for (const CsvTable& t : input.tables) {
      GRAPHGEN_ASSIGN_OR_RETURN(graphgen::rel::Table table,
                                graphgen::rel::ParseCsv(t.name, t.text));
      tables.push_back(std::move(table));
    }
  }
  auto span = recorder.Begin("relational.analyze", -1);
  for (graphgen::rel::Table& t : tables) db.PutTable(std::move(t));
  return graphgen::Status::OK();
}

}  // namespace perfbench
