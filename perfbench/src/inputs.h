// Seeded input generation. Every workload's tables are produced here as CSV
// text and reach the library only through rel::ParseCsv, so the library
// sees no generator state. The shapes follow the paper's Fig. 15 schemas
// (DBLP-, IMDB- and TPC-H-like), but the generators are the benchmark's
// own: a change to the library's generators does not change the inputs.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/database.h"
#include "trace.h"

namespace perfbench {

/// splitmix64: fully specified, so a seed gives the same inputs with any
/// standard library.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed)
      : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Bounded(uint64_t bound) { return Next() % bound; }
  /// Normal(mean, sd) rounded and clamped to [lo, hi].
  size_t ClampedNormal(double mean, double sd, size_t lo, size_t hi);

 private:
  uint64_t state_;
};

/// Zipf over ranks [0, n) with exponent s, by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(SeededRng& rng) const;

 private:
  std::vector<double> cdf_;
};

struct CsvTable {
  std::string name;
  std::string text;
  size_t rows = 0;
};

struct CsvInput {
  std::vector<CsvTable> tables;
  size_t Rows() const;
  size_t Bytes() const;
};

/// Customer(custkey,name), Orders(orderkey,custkey),
/// LineItem(orderkey,partkey): 2000*scale customers, 8000*scale orders,
/// 60*scale+20 parts, ~3 Zipf-skewed parts per order.
CsvInput MakeTpchCsv(uint64_t seed, double scale);
inline constexpr const char* kTpchQuery =
    "Nodes(ID, Name) :- Customer(ID, Name).\n"
    "Edges(ID1, ID2) :- Orders(OK1, ID1), LineItem(OK1, PK), "
    "LineItem(OK2, PK), Orders(OK2, ID2).\n";

/// name(id,person), title(id,name), cast_info(person_id,movie_id):
/// 9000*scale actors, 4000*scale movies, ~10 Zipf-skewed actors per movie.
CsvInput MakeImdbCsv(uint64_t seed, double scale);
inline constexpr const char* kImdbQuery =
    "Nodes(ID, Name) :- name(ID, Name).\n"
    "Edges(ID1, ID2) :- cast_info(ID1, M), cast_info(ID2, M).\n";

/// Author(id,name), Pub(pid,title), AuthorPub(aid,pid) with ~5 Zipf-skewed
/// authors per publication. Every eighth pid of [0, pid_space) is held back
/// from the initial tables; `appends` lists those publications, in a seeded
/// order, for the live writer to insert later, so appended rows land inside
/// every pid window.
struct DblpInput {
  struct Publication {
    int64_t pid = 0;
    std::vector<int64_t> authors;
  };
  CsvInput csv;
  size_t num_authors = 0;
  int64_t pid_space = 0;
  std::vector<Publication> appends;
};
DblpInput MakeDblpCsv(uint64_t seed, size_t num_authors, size_t pid_space);

/// Parses every table with rel::ParseCsv and installs it with PutTable
/// (which analyzes it). Spans: relational.csv_parse and relational.analyze.
graphgen::Status Ingest(const CsvInput& input, graphgen::rel::Database& db,
                        Recorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
