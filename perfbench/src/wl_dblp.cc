// dblp-service-live: a GraphService over a DBLP-like database that three
// closed-loop readers query while one open-loop writer appends new
// publications. A read picks one of kWindows pid-window co-author queries
// in C-DUP or EXP with Zipf skew, then calls Extract, FlatView and
// PageRank. (One kernel for every read: with a random mix of kernels the
// hit latency has one mode per kernel, and its median jumps between modes
// from seed to seed.) Hits exercise key canonicalization, cache lookup,
// the CSR view and the kernel; misses exercise cold extraction and delta
// patching; appends run beside the reads, so a read gain that costs
// appends still shows.
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/graphgen.h"
#include "inputs.h"
#include "service/cache_key.h"
#include "service/graph_service.h"
#include "workloads.h"

namespace perfbench {

using graphgen::GraphGen;
using graphgen::GraphGenOptions;
using graphgen::Representation;
using graphgen::Status;
using graphgen::service::GraphHandle;
using graphgen::service::GraphService;

namespace {

constexpr size_t kAuthors = 8000;
constexpr size_t kPidSpace = 16000;
constexpr size_t kWindows = 12;  // keys: kWindows x {C-DUP, EXP}
constexpr double kKeySkew = 1.2;
constexpr size_t kHotKeys = 12;
/// The cache holds the hot keys' footprint times this; the full key set
/// does not fit.
constexpr double kBudgetHeadroom = 1.5;
constexpr size_t kReaders = 3;
/// Think time between a reader's requests. Without it the readers keep the
/// cores saturated, coalesced waits pile up, and throughput swings with
/// every change in machine speed.
constexpr auto kThinkTime = std::chrono::milliseconds(4);
constexpr int64_t kAppendIntervalNs = 400'000'000;  // writer: 2.5 batches/s
constexpr size_t kPubsPerAppend = 16;

struct Key {
  std::string datalog;
  GraphGenOptions options;
  const char* repr;  // metric suffix
};

std::vector<Key> MakeKeys(int64_t pid_space) {
  std::vector<Key> keys;
  const int64_t width = (pid_space + kWindows - 1) / kWindows;
  for (size_t w = 0; w < kWindows; ++w) {
    const int64_t lo = static_cast<int64_t>(w) * width;
    const std::string datalog =
        "Nodes(ID, Name) :- Author(ID, Name).\n"
        "Edges(ID1, ID2) :- AuthorPub(ID1, P), AuthorPub(ID2, P), P >= " +
        std::to_string(lo) + ", P < " + std::to_string(lo + width) + ".\n";
    for (auto [repr, name] : {std::pair{Representation::kCDup, "cdup"},
                              std::pair{Representation::kExp, "exp"}}) {
      Key key{datalog, {}, name};
      key.options.representation = repr;
      // Each reader extracts on its own thread: the three readers and the
      // writer already occupy the four cores. Thread counts are not part
      // of the cache key.
      key.options.extract.threads = 1;
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

std::vector<graphgen::rel::Row> PubRows(
    const std::vector<DblpInput::Publication>& pubs) {
  std::vector<graphgen::rel::Row> rows;
  for (const auto& p : pubs) {
    rows.push_back({p.pid, "pub_" + std::to_string(p.pid)});
  }
  return rows;
}

std::vector<graphgen::rel::Row> LinkRows(
    const std::vector<DblpInput::Publication>& pubs) {
  std::vector<graphgen::rel::Row> rows;
  for (const auto& p : pubs) {
    for (int64_t a : p.authors) rows.push_back({a, p.pid});
  }
  return rows;
}

/// The handles whose flat view some reader has requested: the first
/// request for a handle builds its CSR adapter. Weak references, so no
/// graph is kept alive and a recycled address never matches.
class ViewedHandles {
 public:
  bool First(const GraphHandle& h) EXCLUDES(mu_) {
    graphgen::MutexLock lock(mu_);
    std::weak_ptr<const graphgen::ExtractedGraph>& seen = viewed_[h.get()];
    if (seen.lock() == h) return false;
    seen = h;
    return true;
  }

 private:
  graphgen::Mutex mu_;
  std::unordered_map<const void*, std::weak_ptr<const graphgen::ExtractedGraph>>
      viewed_ GUARDED_BY(mu_);
};

struct ReaderTotals {
  std::vector<OpSample> ops;
  std::vector<double> hit_ms, miss_ms;
  uint64_t hits = 0, reads = 0, failed = 0;
  std::vector<std::string> failures;
};

}  // namespace

void RunDblpServiceLive(const RunConfig& config, Recorder& recorder,
                        Report& report) {
  const DblpInput input = MakeDblpCsv(config.seed, kAuthors, kPidSpace);
  const std::vector<Key> keys = MakeKeys(input.pid_space);

  // A key's index is its Zipf popularity rank: window w's C-DUP and EXP
  // keys hold ranks 2w and 2w+1, so every seed has the same mix of
  // representations among its hot keys (windows differ only in their
  // seeded contents).

  // Sizing, untimed: the cache budget covers the hot keys with headroom;
  // the working set is every key's footprint. The edge counts are summed
  // over the windows' C-DUP graphs.
  double hot_bytes = 0, working_set_bytes = 0;
  double condensed_edges = 0, expanded_edges = 0;
  {
    Recorder off(false);
    graphgen::rel::Database db;
    if (Status st = Ingest(input.csv, db, off); !st.ok()) {
      report.Fail("sizing ingest: " + st.ToString());
      return;
    }
    GraphGen engine(&db);
    for (size_t rank = 0; rank < keys.size(); ++rank) {
      GraphGenOptions options = keys[rank].options;
      options.capture_incremental = true;  // as the service extracts
      auto g = engine.Extract(keys[rank].datalog, options);
      if (!g.ok()) {
        report.Fail("sizing extraction: " + g.status().ToString());
        return;
      }
      if (g->representation == Representation::kCDup) {
        condensed_edges += static_cast<double>(g->graph->CountStoredEdges());
        expanded_edges += static_cast<double>(g->graph->CountExpandedEdges());
      }
      const double bytes = static_cast<double>(g->FootprintBytes());
      working_set_bytes += bytes;
      if (rank < kHotKeys) hot_bytes += bytes;
    }
  }
  graphgen::service::ServiceOptions service_options;
  service_options.cache_budget_bytes =
      static_cast<size_t>(hot_bytes * kBudgetHeadroom);
  if (hot_bytes * kBudgetHeadroom >= working_set_bytes) {
    report.Fail("the cache budget holds every key");
  }

  std::unique_ptr<graphgen::rel::Database> db;
  std::unique_ptr<GraphService> service;
  if (!MeasureSetup(report, [&]() -> Status {
        service.reset();
        db = std::make_unique<graphgen::rel::Database>();
        GRAPHGEN_RETURN_NOT_OK(Ingest(input.csv, *db, recorder));
        service = std::make_unique<GraphService>(db.get(), service_options);
        for (size_t rank = 0; rank < kHotKeys; ++rank) {
          const Key& key = keys[rank];
          GRAPHGEN_RETURN_NOT_OK(
              service->Extract(key.datalog, key.options).status());
        }
        return Status::OK();
      })) {
    return;
  }
  const graphgen::service::ServiceStats before = service->Stats();

  // Writer: open loop, one batch every kAppendIntervalNs, each timed from
  // its due time.
  std::atomic<bool> stop{false};
  std::vector<double> append_ms, writer_lag_ms;
  std::vector<std::string> writer_failures;
  const int64_t start = NowNs();
  std::thread writer([&] {
    size_t next_pub = 0;
    for (int64_t i = 0;; ++i) {
      const int64_t due = start + i * kAppendIntervalNs;
      while (!stop.load() && NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (stop.load()) break;
      if (next_pub + kPubsPerAppend > input.appends.size()) {
        writer_failures.push_back("ran out of publications to append");
        break;
      }
      const std::vector<DblpInput::Publication> batch(
          input.appends.begin() + next_pub,
          input.appends.begin() + next_pub + kPubsPerAppend);
      next_pub += kPubsPerAppend;
      const int64_t begin = NowNs();
      Status st;
      {
        auto span = recorder.Begin("service.append", -2);
        st = service->Append("Pub", PubRows(batch));
        if (st.ok()) st = service->Append("AuthorPub", LinkRows(batch));
      }
      const int64_t end = NowNs();
      if (!st.ok()) {
        writer_failures.push_back("append: " + st.ToString());
        break;
      }
      writer_lag_ms.push_back(static_cast<double>(begin - due) / 1e6);
      append_ms.push_back(static_cast<double>(end - due) / 1e6);
    }
  });

  // Readers: closed loop, each with its own seeded request stream.
  const Zipf key_zipf(keys.size(), kKeySkew);
  ViewedHandles viewed;
  std::atomic<int64_t> next_op{0};
  const int64_t stop_at = start + static_cast<int64_t>(config.seconds * 1e9);
  std::vector<ReaderTotals> totals(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderTotals& t = totals[r];
      // A read is a hit when it returns the handle this reader last saw
      // for the key.
      std::vector<std::weak_ptr<const graphgen::ExtractedGraph>> last_seen(
          keys.size());
      SeededRng reader_rng(config.seed * 31 + r + 1);
      while (NowNs() < stop_at) {
        const size_t key_index = key_zipf.Sample(reader_rng);
        const Key& key = keys[key_index];
        const int64_t op = next_op.fetch_add(1);
        if (recorder.enabled()) {
          // The service parses and re-prints every request to canonicalize
          // its cache key; the traced run replays that call beside the op
          // (outside its timing) to measure the datalog layer.
          auto span = recorder.Begin("datalog.parse", op);
          if (!graphgen::service::CanonicalCacheKey(key.datalog, key.options)
                   .ok()) {
            t.failures.push_back("request does not parse");
          }
        }
        const int64_t begin = NowNs();
        bool ok = false;
        {
          auto op_span = recorder.Begin("op", op);
          graphgen::Result<GraphHandle> h = [&] {
            auto span = recorder.Begin("service.extract", op);
            return service->Extract(key.datalog, key.options);
          }();
          const int64_t extracted = NowNs();
          if (h.ok()) {
            const double extract_ms =
                static_cast<double>(extracted - begin) / 1e6;
            const bool hit = last_seen[key_index].lock() == *h;
            last_seen[key_index] = *h;
            if (hit) {
              ++t.hits;
              t.hit_ms.push_back(extract_ms);
            } else {
              t.miss_ms.push_back(extract_ms);
            }
            const bool build = viewed.First(*h) &&
                               !(*h)->graph->HasFlatAdjacency();
            std::shared_ptr<const graphgen::Graph> view;
            {
              auto span = recorder.Begin(
                  build ? "repr.csr_build" : "service.flat_view", op);
              view = service->FlatView(*h);
            }
            // Single-threaded: the three readers already load the cores,
            // and a per-call thread fan-out would oversubscribe them.
            ok = view != nullptr &&
                 RunKernel(Kernel::kPageRank, *view, key.repr, {}, recorder,
                           op, /*threads=*/1);
            if (!ok) t.failures.push_back("kernel output has the wrong size");
          } else {
            t.failures.push_back("extract: " + h.status().ToString());
          }
        }
        const int64_t end = NowNs();
        t.ops.push_back({end, static_cast<double>(end - begin) / 1e6});
        ++t.reads;
        if (!ok) ++t.failed;
        std::this_thread::sleep_for(kThinkTime);
      }
    });
  }
  for (std::thread& th : readers) th.join();
  const int64_t run_end = NowNs();
  stop.store(true);
  writer.join();

  std::vector<OpSample> ops;
  std::vector<double> hit_ms, miss_ms;
  uint64_t hits = 0, reads = 0;
  for (const ReaderTotals& t : totals) {
    ops.insert(ops.end(), t.ops.begin(), t.ops.end());
    hit_ms.insert(hit_ms.end(), t.hit_ms.begin(), t.hit_ms.end());
    miss_ms.insert(miss_ms.end(), t.miss_ms.begin(), t.miss_ms.end());
    hits += t.hits;
    reads += t.reads;
    report.CountOps(t.reads, t.failed);
    for (const std::string& f : t.failures) report.Fail(f);
  }
  for (const std::string& f : writer_failures) report.Fail(f);
  ReportOps(report, ops, start, run_end);
  ReportPeakRss(report);
  report.Set("append_ms.p50", Percentile(append_ms, 50), "ms",
             append_ms.size());
  report.Set("append_ms.p90", Percentile(append_ms, 90), "ms",
             append_ms.size());
  report.Set("writer_lag_ms.p90", Percentile(writer_lag_ms, 90), "ms",
             writer_lag_ms.size());

  const graphgen::service::ServiceStats after = service->Stats();
  SetMedian(report, "service.hit_ms.p50", hit_ms, "ms");
  SetMedian(report, "service.miss_ms.p50", miss_ms, "ms");
  report.Set("service.hit_ratio",
             reads == 0 ? 0.0 : static_cast<double>(hits) / reads, "ratio",
             reads);
  const std::pair<const char*, uint64_t> deltas[] = {
      {"service.cold_extractions",
       after.cold_extractions - before.cold_extractions},
      {"service.delta_patched", after.delta_patched - before.delta_patched},
      {"service.delta_fallback", after.delta_fallback - before.delta_fallback},
      {"service.evictions", after.evictions - before.evictions},
      {"service.coalesced", after.coalesced - before.coalesced},
      {"service.cache_hits", after.cache_hits - before.cache_hits},
  };
  for (const auto& [name, delta] : deltas) {
    report.Set(name, static_cast<double>(delta), "count", 1);
  }
  report.Set("service.cache_budget_bytes",
             static_cast<double>(service_options.cache_budget_bytes), "bytes",
             1);
  report.Set("service.hot_set_bytes", hot_bytes, "bytes", 1);
  report.Set("service.working_set_bytes", working_set_bytes, "bytes", 1);
  report.Set("planner.condensed_edges", condensed_edges, "count", 1);
  report.Set("repr.expanded_edges", expanded_edges, "count", 1);
  report.Set("relational.input_rows", static_cast<double>(input.csv.Rows()),
             "count", 1);
  report.Set("relational.csv_bytes", static_cast<double>(input.csv.Bytes()),
             "bytes", 1);

  // Untimed, one more op per key: every key the service serves equals a
  // fresh extraction on the final database (appends included).
  GraphGen fresh_engine(db.get());
  for (const Key& key : keys) {
    auto served = service->Extract(key.datalog, key.options);
    auto fresh = fresh_engine.Extract(key.datalog, key.options);
    const bool same = served.ok() && fresh.ok() &&
                      (*served)->graph->ExpandedEdgeSet() ==
                          fresh->graph->ExpandedEdgeSet();
    if (!same) {
      report.Fail("served graph differs from a fresh extraction (" +
                  std::string(key.repr) + ", " +
                  key.datalog.substr(key.datalog.find("P >=")) + ")");
    }
    report.CountOp(same);
  }
  service.reset();
}

}  // namespace perfbench
