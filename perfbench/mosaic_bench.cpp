/// \file mosaic_bench.cpp
/// Workload runner of the end-to-end benchmark (see README.md next to this
/// file). Runs one named workload in-process through the library's public
/// entry points and writes raw samples, counters, output hashes and
/// benchmark-side spans as one JSON document. run.py turns that document
/// into the reported metrics; no statistic is computed here.
///
///   mosaic_bench --workload clip_cold|chip_repeat|serve_stream --seed N
///                --seconds S --trace 0|1 --work-dir DIR --out FILE
///
/// Untraced runs measure one window of about S seconds. Traced runs measure
/// an untraced window of S/2, then a traced window of S/2 with spans around
/// every call into a layer, then direct probe calls per layer made at the
/// workload's grid shape on its data. Every window completes at least one
/// pass over the workload's fixed input set.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "eval/epe.hpp"
#include "eval/evaluator.hpp"
#include "eval/pvband.hpp"
#include "geometry/edges.hpp"
#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/kernel_cache.hpp"
#include "litho/simulator.hpp"
#include "math/backend.hpp"
#include "math/fft.hpp"
#include "opc/mosaic.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "suite/testcases.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/json.hpp"
#include "support/telemetry/jsonin.hpp"
#include "support/telemetry/metrics.hpp"
#include "tile/scheduler.hpp"
#include "tile/stitch.hpp"
#include "tile/tiling.hpp"

namespace fs = std::filesystem;
using namespace mosaic;

namespace {

// ---------------------------------------------------------------- clock

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Seconds since process start on the monotonic clock.
double now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

void sleepUntil(double t) {
  const double dt = t - now();
  if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

double cpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------------- tracing

/// Benchmark-side spans: name, start, end, parent (index, -1 = top level).
/// Recording is off outside the traced window; the parent of a scoped span
/// is the innermost open span of the same thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  void setEnabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  int open(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// A span whose times were taken elsewhere (serve jobs finish on worker
  /// threads; their start is derived from the reported job wall time).
  int record(const std::string& name, double start, double end, int parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  /// Scoped spans are only opened from the thread driving a workload, so
  /// one cursor suffices.
  int current_ = -1;
};

Tracer gTracer;

class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : id_(gTracer.enabled() ? gTracer.open(name) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) gTracer.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// ------------------------------------------------------------ raw record

/// Everything run.py needs: raw samples by name, scalar values, failure
/// accounting and output hashes.
struct Record {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> checkFailures;
  std::vector<std::pair<std::string, std::string>> hashes;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      checkFailures.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

std::string jsonString(const std::string& s) {
  return "\"" + telemetry::jsonEscape(s) + "\"";
}

bool allFinite(const RealGrid& g) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (!std::isfinite(g.data()[i])) return false;
  }
  return true;
}

std::string bitHash(const BitGrid& g) { return serve::maskHashHex(toReal(g)); }

/// Deterministic Fisher-Yates order of 1..count from the workload seed.
std::vector<int> seededOrder(std::uint64_t seed, int count) {
  std::vector<int> order(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) order[static_cast<std::size_t>(i)] = i + 1;
  std::mt19937_64 rng(seed);
  for (int i = count - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng() % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

/// Focus values every corner of a method's optimization and evaluation
/// touches, nominal first.
std::vector<double> focusValues(const IltConfig& cfg) {
  std::vector<double> out{nominalCorner().focusNm};
  auto addFocus = [&](double f) {
    if (std::find(out.begin(), out.end(), f) == out.end()) out.push_back(f);
  };
  for (const ProcessCorner& c : cfg.pvbCorners) addFocus(c.focusNm);
  for (const ProcessCorner& c : evaluationCorners()) addFocus(c.focusNm);
  return out;
}

/// Counters read around a window (registry and executor).
struct CounterSnap {
  double spectra = 0;
  double scratchHit = 0;
  double scratchMiss = 0;
  double tasks = 0;
  double steals = 0;

  static CounterSnap take() {
    auto& m = telemetry::metrics();
    const PoolStats pool = poolStats();
    CounterSnap s;
    s.spectra = static_cast<double>(m.counter("litho.mask_spectrum").value());
    s.scratchHit = static_cast<double>(m.counter("scratch.hit").value());
    s.scratchMiss = static_cast<double>(m.counter("scratch.miss").value());
    s.tasks = static_cast<double>(pool.tasksExecuted);
    s.steals = static_cast<double>(pool.tasksStolen);
    return s;
  }
};

/// Per-unit counter deltas of a traced window.
void addCounterDeltas(Record& rec, const CounterSnap& a, const CounterSnap& b,
                      int units) {
  const double n = std::max(1, units);
  rec.add("litho.mask_spectrum.count", (b.spectra - a.spectra) / n);
  const double hits = b.scratchHit - a.scratchHit;
  const double total = hits + (b.scratchMiss - a.scratchMiss);
  rec.add("math.scratch_hit_ratio", total > 0 ? hits / total : 0.0);
  rec.add("executor.tasks", (b.tasks - a.tasks) / n);
  rec.add("executor.steals", (b.steals - a.steals) / n);
}

template <typename Fn>
void timeRepeated(Record& rec, const std::string& name, int reps, double scale,
                  Fn&& fn) {
  for (int i = 0; i < reps; ++i) {
    const double t0 = now();
    fn();
    rec.add(name, (now() - t0) * scale);
  }
}

// --------------------------------------------------------------- probes

/// Layer probes shared by every workload: direct calls at the workload's
/// grid shape, on its simulator, mask and target.
void probeLithoMathOpcEval(Record& rec, const LithoSimulator& sim,
                           const RealGrid& mask, const BitGrid& target,
                           OpcMethod method, const std::string& workDir) {
  const int n = sim.gridSize();
  timeRepeated(rec, "litho.mask_spectrum_ms", 20, 1e3,
               [&] { (void)sim.maskSpectrum(mask); });
  timeRepeated(rec, "litho.aerial_ms", 10, 1e3,
               [&] { (void)sim.aerial(mask, nominalCorner()); });
  {
    const Fft2d& fft = fft2dFor(n, n);
    ComplexGrid g(n, n);
    for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = mask.data()[i];
    timeRepeated(rec, "math.fft_pair_ms", 20, 1e3, [&] {
      fft.forward(g);
      fft.inverse(g);
    });
  }
  const IltConfig cfg = defaultIltConfig(method, sim.optics().pixelNm);
  const IltObjective objective(sim, target, cfg);
  timeRepeated(rec, "opc.objective_ms", 5, 1e3,
               [&] { (void)objective.evaluate(mask, true); });
  {
    OptimizerCheckpoint ck;
    ck.iteration = cfg.maxIterations;
    ck.params = mask;
    ck.bestMask = mask;
    ck.history.resize(static_cast<std::size_t>(cfg.maxIterations));
    const std::string path = workDir + "/probe.ckpt";
    timeRepeated(rec, "opc.checkpoint_write_ms", 5, 1e3,
                 [&] { saveOptimizerCheckpoint(path, ck); });
    fs::remove(path);
  }
  timeRepeated(rec, "eval.evaluate_ms", 3, 1e3,
               [&] { (void)evaluateMask(sim, mask, target, 0.0); });
  timeRepeated(rec, "eval.pvband_ms", 3, 1e3,
               [&] { (void)computePvBand(sim, mask, evaluationCorners()); });
}

/// Load timings of the workload's kernel files (written first when the
/// workload itself keeps none on disk).
void probeKernelLoad(Record& rec, const LithoSimulator& sim,
                     const std::vector<double>& focuses,
                     const std::string& dir) {
  fs::create_directories(dir);
  for (const double f : focuses) {
    const std::string path = dir + "/" + kernelCacheName(sim.optics(), f);
    if (!fs::exists(path)) saveKernelSet(path, sim.kernels(f));
    timeRepeated(rec, "litho.kernels.load_ms", 3, 1e3,
                 [&] { (void)loadKernelSet(path); });
  }
}

void probeExecutor(Record& rec) {
  for (int i = 0; i < 200; ++i) {
    const double t0 = now();
    parallelFor(0, 4, [](std::size_t) {});
    rec.add("executor.dispatch_us", (now() - t0) * 1e6);
  }
}

/// Pattern-store probes on a scratch store: insert each distinct
/// fingerprint, then look each up (hit) and a perturbed copy (miss).
void probeStore(Record& rec, const std::vector<TileFingerprint>& fps,
                const std::vector<RealGrid>& masks, const std::string& dir) {
  fs::remove_all(dir);
  {
    PatternStore store(PatternStoreConfig{dir, 0});
    for (std::size_t i = 0; i < fps.size(); ++i) {
      CachedSolution sol;
      sol.mask = masks[i];
      const double t0 = now();
      if (store.insert(fps[i], sol)) {
        rec.add("cache.insert_ms", (now() - t0) * 1e3);
      }
    }
    for (const TileFingerprint& fp : fps) {
      const double t0 = now();
      (void)store.lookup(fp);
      rec.add("cache.lookup_hit_ms", (now() - t0) * 1e3);
      TileFingerprint miss = fp;
      miss.coreHash ^= 0x9e3779b97f4a7c15ull;
      miss.configHash ^= 0x9e3779b97f4a7c15ull;
      const double t1 = now();
      (void)store.lookup(miss);
      rec.add("cache.lookup_miss_ms", (now() - t1) * 1e3);
    }
  }
  fs::remove_all(dir);
}

/// Tile and cache probes on a partitioned chip: partition, stitch of the
/// given per-tile masks, fingerprint, and store insert/lookup.
void probeTileCache(Record& rec, const Layout& chip, const ChipConfig& cfg,
                    const std::vector<RealGrid>& tileMasks,
                    const std::string& workDir) {
  ChipPartition part;
  timeRepeated(rec, "tile.partition_ms", 5, 1e3, [&] {
    part = partitionChip(chip, cfg.tiling, cfg.optics);
  });
  timeRepeated(rec, "tile.stitch_ms", 3, 1e3,
               [&] { (void)stitchTiles(part, tileMasks); });

  OpticsConfig windowOptics = cfg.optics;
  windowOptics.clipSizeNm = part.windowNm;
  windowOptics.pixelNm = part.pixelNm;
  const IltConfig ilt = defaultIltConfig(cfg.method, part.pixelNm);
  const std::uint64_t configHash =
      solverConfigDigest(windowOptics, ilt, static_cast<int>(cfg.method),
                         part.windowNm, part.pixelNm);
  std::vector<TileFingerprint> fps;
  for (const TilePlan& tile : part.tiles) {
    const RectNm coreLocal{tile.coreNm.x0 - tile.windowNm.x0,
                           tile.coreNm.y0 - tile.windowNm.y0,
                           tile.coreNm.x1 - tile.windowNm.x0,
                           tile.coreNm.y1 - tile.windowNm.y0};
    const double t0 = now();
    fps.push_back(
        fingerprintWindow(tile.window, coreLocal, part.pixelNm, configHash));
    rec.add("cache.fingerprint_ms", (now() - t0) * 1e3);
  }
  probeStore(rec, fps, tileMasks, workDir + "/probe_store");
}

/// Window of the chip grid seen by one tile (zero outside the chip).
template <typename GridT>
GridT cropWindow(const GridT& chipGrid, const TilePlan& tile, int pixelNm,
                 int windowPx) {
  GridT out(windowPx, windowPx);
  const int r0 = tile.windowNm.y0 / pixelNm;
  const int c0 = tile.windowNm.x0 / pixelNm;
  for (int r = 0; r < windowPx; ++r) {
    const int cr = r0 + r;
    if (cr < 0 || cr >= chipGrid.rows()) continue;
    for (int c = 0; c < windowPx; ++c) {
      const int cc = c0 + c;
      if (cc < 0 || cc >= chipGrid.cols()) continue;
      out(r, c) = chipGrid(cr, cc);
    }
  }
  return out;
}

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;
  std::string out;
};

/// Window bookkeeping shared by the workloads. A window runs whole passes
/// over the workload's input set until `seconds` have elapsed.
struct Window {
  double start = 0.0;
  double end = 0.0;
  double cpu = 0.0;
  int passes = 0;
  int units = 0;
};

// clip_cold: the library calls of `mosaic_cli run --case <k> --method fast`
// at the CLI default pixel, each clip on a fresh simulator with no kernel
// cache, so every clip pays kernel construction.
constexpr int kClipPixelNm = 4;

struct ClipOutput {
  explicit ClipOutput(const OpticsConfig& optics) : sim(optics) {}
  LithoSimulator sim;
  BitGrid target;
  RealGrid mask;
};

Window runClipWindow(const Args& a, Record& rec, double seconds, bool traced,
                     bool firstWindow, std::unique_ptr<ClipOutput>* keep) {
  const std::vector<int> order = seededOrder(a.seed, kTestcaseCount);
  const std::string prefix = traced ? "traced." : "";
  Window w;
  w.start = now();
  w.cpu = cpuSeconds();
  while (w.passes == 0 || now() - w.start < seconds) {
    const double passStart = now();
    for (const int k : order) {
      const double t0 = now();
      SpanScope clipSpan("bench.clip");
      const Layout layout = buildTestcase(k);
      BitGrid target;
      {
        SpanScope s("geometry.rasterize");
        target = rasterize(layout, kClipPixelNm);
      }
      const double setup0 = now();
      OpticsConfig optics;
      optics.pixelNm = kClipPixelNm;
      auto out = std::make_unique<ClipOutput>(optics);
      out->target = target;
      const IltConfig cfg = defaultIltConfig(OpcMethod::kMosaicFast,
                                             kClipPixelNm);
      for (const double f : focusValues(cfg)) {
        SpanScope s("litho.kernels.build");
        const double b0 = now();
        out->sim.warmKernels({f});
        if (traced) rec.add("litho.kernels.build_ms", (now() - b0) * 1e3);
      }
      if (!traced) rec.add("setup_s", now() - setup0);

      OpcResult res;
      {
        SpanScope s("opc.optimize");
        IterationCallback cb;
        if (traced) {
          cb = [&rec](const IterationRecord& r, const RealGrid&) {
            rec.add(r.iteration == 1 ? "opc.first_iteration_ms"
                                     : "opc.iteration_ms",
                    r.wallMs);
          };
        }
        res = runOpc(out->sim, target, OpcMethod::kMosaicFast, &cfg, {}, cb);
      }
      CaseEvaluation ev;
      {
        SpanScope s("eval.evaluate");
        ev = evaluateMask(out->sim, res.maskTwoLevel, target, res.runtimeSec);
      }
      const double t1 = now();
      rec.add(prefix + "unit_ms", (t1 - t0) * 1e3);
      if (traced) rec.add("opc.iterations", res.iterations);

      ++rec.attempted;
      const bool finite = allFinite(res.maskTwoLevel);
      if (res.stopReason == StopReason::kAbortedNonFinite || !finite) {
        ++rec.failed;
      }
      rec.check(finite, layout.name + ": non-finite mask");
      const std::string hash = serve::maskHashHex(res.maskTwoLevel);
      rec.hashes.push_back({layout.name, hash});
      if (firstWindow && w.passes == 0) {
        rec.values["epe_violations"] += ev.epeViolations;
        rec.values["pvband_nm2"] += ev.pvbandAreaNm2;
      }
      ++w.units;
      out->mask = res.maskTwoLevel;
      if (keep) *keep = std::move(out);
    }
    rec.add(prefix + "pass_s", now() - passStart);
    ++w.passes;
  }
  w.end = now();
  w.cpu = cpuSeconds() - w.cpu;
  return w;
}

// chip_repeat: optimizeChip on 4x4 replications of one cell, one chip per
// suite clip per pass; kernel files are built in set-up and loaded from
// disk, and every chip gets a fresh pattern store with cache-aware order.
constexpr int kChipPixelNm = 8;
constexpr int kChipReplicate = 4;

ChipConfig chipConfig(const std::string& workDir) {
  ChipConfig cfg;
  cfg.tiling.tileSizeNm = 1024;
  cfg.tiling.pixelNm = kChipPixelNm;
  cfg.optics.pixelNm = kChipPixelNm;
  cfg.method = OpcMethod::kMosaicFast;
  cfg.kernelCacheDir = workDir + "/kernels";
  cfg.cacheAwareOrder = true;
  return cfg;
}

struct ChipQuality {
  long long epe = 0;
  double pvbNm2 = 0.0;
};

/// EPE violations and PV band of a stitched chip mask, evaluated per tile
/// window on the window simulator and counted inside each tile's core only.
ChipQuality evaluateChip(const LithoSimulator& sim, const ChipPartition& part,
                         const BitGrid& chipMask, const BitGrid& chipTarget) {
  const int px = part.pixelNm;
  const int win = part.windowGrid();
  const EvalConfig ec;
  std::vector<ChipQuality> perTile(part.tiles.size());
  parallelFor(0, part.tiles.size(), [&](std::size_t i) {
    const TilePlan& tile = part.tiles[i];
    const RealGrid mask = toReal(cropWindow(chipMask, tile, px, win));
    const BitGrid target = cropWindow(chipTarget, tile, px, win);
    const int r0 = (tile.coreNm.y0 - tile.windowNm.y0) / px;
    const int c0 = (tile.coreNm.x0 - tile.windowNm.x0) / px;
    const int r1 = (tile.coreNm.y1 - tile.windowNm.y0) / px;
    const int c1 = (tile.coreNm.x1 - tile.windowNm.x0) / px;
    auto inCore = [&](int r, int c) {
      return r >= r0 && r < r1 && c >= c0 && c < c1;
    };
    const ComplexGrid spectrum = sim.maskSpectrum(mask);
    const BitGrid printed =
        sim.printBinary(sim.aerialFromSpectrum(spectrum, nominalCorner()));
    const auto samples = extractSamples(target, ec.sampleSpacingNm / px);
    const EpeResult epe =
        measureEpe(printed, target, samples, px, ec.epeThresholdNm);
    ChipQuality& q = perTile[i];
    for (const EpeSampleResult& s : epe.perSample) {
      const int r = s.sample.horizontal ? s.sample.boundary : s.sample.along;
      const int c = s.sample.horizontal ? s.sample.along : s.sample.boundary;
      if (s.violation && inCore(r, c)) ++q.epe;
    }
    const PvBandResult pvb = computePvBand(sim, spectrum, ec.corners);
    long long band = 0;
    for (int r = r0; r < r1; ++r) {
      for (int c = c0; c < c1; ++c) band += pvb.band(r, c) ? 1 : 0;
    }
    q.pvbNm2 = static_cast<double>(band) * px * px;
  });
  ChipQuality total;
  for (const ChipQuality& q : perTile) {
    total.epe += q.epe;
    total.pvbNm2 += q.pvbNm2;
  }
  return total;
}

struct ChipRun {
  int cell = 0;
  ChipResult result;
};

Window runChipWindow(const Args& a, Record& rec, const ChipConfig& base,
                     double seconds, bool traced,
                     std::map<int, std::string>* firstHash,
                     std::vector<ChipRun>* firstPass) {
  const std::vector<int> order = seededOrder(a.seed, kTestcaseCount);
  const std::string prefix = traced ? "traced." : "";
  // Iteration records arrive from the executor's workers.
  std::mutex iterMutex;
  Window w;
  w.start = now();
  w.cpu = cpuSeconds();
  int storeId = 0;
  while (w.passes == 0 || now() - w.start < seconds) {
    const double passStart = now();
    for (const int k : order) {
      SpanScope chipSpan("bench.chip");
      const Layout chip = [&] {
        SpanScope s("geometry.replicate");
        return replicateLayout(buildTestcase(k), kChipReplicate,
                               kChipReplicate);
      }();
      ChipConfig cfg = base;
      cfg.patternCacheDir =
          a.workDir + "/store_" + std::to_string(storeId++);
      fs::remove_all(cfg.patternCacheDir);
      if (traced) {
        cfg.progressSink = [&rec, &iterMutex](const std::string&,
                                              const IterationRecord& r) {
          std::lock_guard<std::mutex> lock(iterMutex);
          rec.add(r.iteration == 1 ? "opc.first_iteration_ms"
                                   : "opc.iteration_ms",
                  r.wallMs);
        };
      }
      const double t0 = now();
      ChipResult res;
      {
        SpanScope s("tile.optimize_chip");
        res = optimizeChip(chip, cfg);
      }
      const double t1 = now();
      {
        SpanScope s("cache.store_remove");
        fs::remove_all(cfg.patternCacheDir);
      }
      rec.add(prefix + "unit_ms", (t1 - t0) * 1e3);

      const SeamReport& seam = res.stitched.report;
      rec.attempted += res.partition.tileCount();
      rec.failed += res.failed;
      const std::string name = chip.name;
      rec.check(seam.nonFinitePixels == 0 &&
                    allFinite(res.stitched.maskContinuous),
                name + ": non-finite stitched pixels");
      rec.check(!res.interrupted, name + ": chip run interrupted");
      const std::string hash = bitHash(res.stitched.maskBinary);
      rec.hashes.push_back({name, hash});
      const auto [it, first] = firstHash->emplace(k, hash);
      if (!first) rec.add("tile.mask_repeatable", it->second == hash ? 1 : 0);

      if (traced) {
        int optimized = 0, pasted = 0, warm = 0, iterations = 0;
        double tileSeconds = 0.0;
        for (const TileOutcome& o : res.outcomes) {
          if (o.fromCache) {
            ++pasted;
          } else if (!o.skippedEmpty) {
            ++optimized;
          }
          if (o.warmStarted) ++warm;
          iterations += o.iterations;
          tileSeconds += o.seconds;
          rec.add("tile.optimize_ms", o.seconds * 1e3);
        }
        rec.add("tile.optimized", optimized);
        rec.add("tile.pasted", pasted);
        rec.add("tile.warm_started", warm);
        rec.add("tile.core_mismatch_px",
                static_cast<double>(seam.coreMismatchPixels));
        rec.add("tile.seam_disagree_frac", seam.disagreementFraction);
        rec.add("tile.busy_frac",
                tileSeconds / ((t1 - t0) * hardwareParallelism()));
        rec.add("opc.iterations", iterations);
        const PatternStoreStats& cs = res.cacheStats;
        rec.add("cache.hit_ratio", cs.hitRate());
        rec.add("cache.exact_hits", static_cast<double>(cs.exactHits));
        rec.add("cache.near_miss_hits", static_cast<double>(cs.nearMissHits));
      }
      ++w.units;
      if (firstPass && w.passes == 0) {
        firstPass->push_back({k, std::move(res)});
      }
    }
    rec.add(prefix + "pass_s", now() - passStart);
    ++w.passes;
  }
  w.end = now();
  w.cpu = cpuSeconds() - w.cpu;
  return w;
}

// serve_stream: an open loop at a fixed offered rate into an in-process
// JobService through the wire protocol (no socket). One generator thread
// sends each job when it is due; a collector watches every job until its
// terminal event. Jobs are distinct random clips with JobSpec defaults.
constexpr int kServeWorkers = 2;
/// Offered load in jobs per second: about a quarter of what two workers
/// sustain on JobSpec-default jobs (16 nm, 20 iterations) on the machine
/// the baseline in README.md was taken on. At two-thirds (40 jobs/s) the
/// shared machine's slow spells pushed the service past saturation in
/// about half of the runs, and the latency percentiles jumped from ~40 ms
/// to seconds; at this rate the service stays below saturation even when
/// it runs at 40% of its normal speed.
constexpr double kServeRatePerSec = 15.0;
/// Executor size for the stream, as `mosaic_serve --pool-threads 2`. Two
/// job workers already keep two cores busy; a pool of nproc adds
/// fine-grained nested loops on 64x64 grids, whose barriers wait on any
/// descheduled thread. On the shared machine that made job latency swing
/// by +50% between runs (+42% under three busy-loop processes, against
/// +18% with a pool of 2), for 15% lower latency when the machine is quiet.
constexpr int kServeExecutorWorkers = 2;
constexpr int kServeMinJobs = 100;

struct JobTrace {
  std::string id;
  std::string caseName;
  double due = 0.0;
  double sent = 0.0;
  double end = 0.0;
  std::string state;
  std::string maskHash;
  double wallSeconds = 0.0;
  int iterations = 0;
  std::vector<double> iterationMs;
  std::shared_ptr<serve::ProgressSubscription> sub;
};

telemetry::JsonValue request(serve::JobService& service,
                             const std::string& line,
                             serve::ProtocolResult* full = nullptr) {
  serve::ProtocolResult r = serve::handleRequestLine(service, line);
  telemetry::JsonValue v = telemetry::JsonValue::parse(r.response);
  if (full) *full = std::move(r);
  return v;
}

std::string submitLine(const std::string& caseName) {
  return "{\"op\":\"submit\",\"case\":\"" + caseName + "\"}";
}

/// Send one job and block until it is terminal (set-up and probes only).
JobTrace runOneJob(serve::JobService& service, const std::string& caseName) {
  JobTrace j;
  j.caseName = caseName;
  const telemetry::JsonValue r = request(service, submitLine(caseName));
  j.id = r.stringOr("job", "");
  if (j.id.empty()) return j;
  serve::ProtocolResult watch;
  (void)request(service, "{\"op\":\"watch\",\"job\":\"" + j.id + "\"}",
                &watch);
  serve::ProgressEvent ev;
  while (watch.watch && !watch.watch->finished()) {
    if (watch.watch->next(&ev, 100) && ev.terminal) break;
  }
  const telemetry::JsonValue res =
      request(service, "{\"op\":\"result\",\"job\":\"" + j.id + "\"}");
  j.state = res.stringOr("state", "");
  j.maskHash = res.stringOr("mask_hash", "");
  return j;
}

struct StreamStats {
  Window window;
  std::vector<JobTrace> jobs;
  long long rejected = 0;
  long long retries = 0;
  PatternStoreStats cacheBefore;
  PatternStoreStats cacheAfter;
};

StreamStats runStream(serve::JobService& service, std::uint64_t seed,
                      int jobs, bool traced, int streamSpan) {
  StreamStats st;
  st.cacheBefore = service.stats().cache;
  const long long retriesBefore = service.stats().retries;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> fresh;  // indices handed from generator to collector
  bool generatorDone = false;
  st.jobs.resize(static_cast<std::size_t>(jobs));
  std::mt19937_64 rng(seed);
  for (JobTrace& j : st.jobs) {
    j.caseName = "random:" + std::to_string(rng() % 1000000000ull);
  }

  st.window.start = now() + 0.05;
  st.window.cpu = cpuSeconds();
  std::thread generator([&] {
    for (int i = 0; i < jobs; ++i) {
      JobTrace& j = st.jobs[static_cast<std::size_t>(i)];
      j.due = st.window.start + i / kServeRatePerSec;
      sleepUntil(j.due);
      j.sent = now();
      const telemetry::JsonValue r = request(service, submitLine(j.caseName));
      const double submitted = now();
      if (traced) {
        gTracer.record("serve.submit", j.sent, submitted, streamSpan);
      }
      j.id = r.stringOr("job", "");
      if (!r.boolOr("ok", false) || j.id.empty()) {
        j.state = "rejected:" + r.stringOr("error", "?");
        j.end = submitted;
        continue;
      }
      serve::ProtocolResult watch;
      (void)request(service, "{\"op\":\"watch\",\"job\":\"" + j.id + "\"}",
                    &watch);
      j.sub = watch.watch;
      {
        std::lock_guard<std::mutex> lock(mu);
        fresh.push_back(static_cast<std::size_t>(i));
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    generatorDone = true;
    cv.notify_one();
  });

  // Collector: drain every in-flight subscription; when idle, block briefly
  // on the oldest so a terminal event is timestamped within ~1 ms.
  std::vector<std::size_t> inflight;
  auto consume = [](JobTrace& j, const serve::ProgressEvent& ev) {
    if (ev.terminal) {
      j.end = now();
      j.state = ev.state;
    } else {
      j.iterationMs.push_back(ev.wallMs);
    }
  };
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu);
      if (inflight.empty() && fresh.empty()) {
        if (generatorDone) break;
        cv.wait_for(lock, std::chrono::milliseconds(5));
      }
      while (!fresh.empty()) {
        inflight.push_back(fresh.front());
        fresh.pop_front();
      }
    }
    bool progressed = false;
    for (const std::size_t idx : inflight) {
      JobTrace& j = st.jobs[idx];
      serve::ProgressEvent ev;
      while (j.sub && j.end == 0.0 && j.sub->next(&ev, 0)) {
        progressed = true;
        consume(j, ev);
      }
      if (j.end == 0.0 && j.sub && j.sub->finished()) {
        j.end = now();  // closed without a terminal event
        j.state = "unknown";
      }
    }
    std::vector<std::size_t> still;
    for (const std::size_t idx : inflight) {
      JobTrace& j = st.jobs[idx];
      if (j.end == 0.0) {
        still.push_back(idx);
        continue;
      }
      const telemetry::JsonValue res =
          request(service, "{\"op\":\"result\",\"job\":\"" + j.id + "\"}");
      j.state = res.stringOr("state", j.state);
      j.maskHash = res.stringOr("mask_hash", "");
      j.wallSeconds = res.numberOr("wall_s", 0.0);
      j.iterations = res.intOr("iterations", 0);
      j.sub.reset();
    }
    inflight.swap(still);
    if (!progressed && !inflight.empty()) {
      JobTrace& j = st.jobs[inflight.front()];
      serve::ProgressEvent ev;
      if (j.sub && j.sub->next(&ev, 1)) consume(j, ev);
    }
  }
  generator.join();
  st.window.end = 0.0;
  for (const JobTrace& j : st.jobs) {
    st.window.end = std::max(st.window.end, j.end);
  }
  st.window.cpu = cpuSeconds() - st.window.cpu;
  st.window.passes = 1;
  st.window.units = jobs;
  const serve::ServiceStats s = service.stats();
  for (const JobTrace& j : st.jobs) {
    if (j.state.rfind("rejected", 0) == 0) ++st.rejected;
  }
  st.retries = s.retries - retriesBefore;
  st.cacheAfter = s.cache;
  return st;
}

// ------------------------------------------------------------ drivers

void runClipCold(const Args& a, Record& rec) {
  const double window = a.trace ? a.seconds / 2 : a.seconds;
  const Window w = runClipWindow(a, rec, window, false, true, nullptr);
  rec.values["window_s"] = w.end - w.start;
  rec.values["cpu_window_s"] = w.cpu;
  rec.values["passes"] = w.passes;
  rec.values["units"] = w.units;
  rec.values["peak_rss_mb"] = peakRssMb();
  if (!a.trace) return;

  std::map<std::string, std::string> firstHash;
  for (const auto& [name, hash] : rec.hashes) firstHash.emplace(name, hash);
  const std::size_t hashesBefore = rec.hashes.size();
  std::unique_ptr<ClipOutput> last;
  const CounterSnap c0 = CounterSnap::take();
  gTracer.setEnabled(true);
  const Window t = runClipWindow(a, rec, window, true, false, &last);
  gTracer.setEnabled(false);
  addCounterDeltas(rec, c0, CounterSnap::take(), t.units);
  rec.values["traced.window_start"] = t.start;
  rec.values["traced.window_s"] = t.end - t.start;
  for (std::size_t i = hashesBefore; i < rec.hashes.size(); ++i) {
    const auto it = firstHash.find(rec.hashes[i].first);
    if (it == firstHash.end()) continue;
    rec.add("opc.mask_repeatable", it->second == rec.hashes[i].second ? 1 : 0);
  }

  const OpcMethod m = OpcMethod::kMosaicFast;
  probeLithoMathOpcEval(rec, last->sim, last->mask, last->target, m,
                        a.workDir);
  probeKernelLoad(rec, last->sim,
                  focusValues(defaultIltConfig(m, kClipPixelNm)),
                  a.workDir + "/probe_kernels");
  probeExecutor(rec);
}

void runChipRepeat(const Args& a, Record& rec) {
  const ChipConfig cfg = chipConfig(a.workDir);
  const Layout firstChip = replicateLayout(
      buildTestcase(seededOrder(a.seed, kTestcaseCount).front()),
      kChipReplicate, kChipReplicate);
  const ChipPartition part = partitionChip(firstChip, cfg.tiling, cfg.optics);
  OpticsConfig windowOptics = cfg.optics;
  windowOptics.clipSizeNm = part.windowNm;
  windowOptics.pixelNm = part.pixelNm;
  const IltConfig ilt = defaultIltConfig(cfg.method, part.pixelNm);
  const std::vector<double> focuses = focusValues(ilt);

  // Set-up: build the kernel files the chip runs load, three times.
  for (int rep = 0; rep < 3; ++rep) {
    fs::remove_all(cfg.kernelCacheDir);
    fs::create_directories(cfg.kernelCacheDir);
    const double s0 = now();
    LithoSimulator sim(windowOptics);
    sim.setKernelCacheDir(cfg.kernelCacheDir);
    for (const double f : focuses) {
      const double b0 = now();
      sim.warmKernels({f});
      rec.add("litho.kernels.build_ms", (now() - b0) * 1e3);
    }
    rec.add("setup_s", now() - s0);
  }

  const double window = a.trace ? a.seconds / 2 : a.seconds;
  std::map<int, std::string> firstHash;
  std::vector<ChipRun> firstPass;
  const Window w =
      runChipWindow(a, rec, cfg, window, false, &firstHash, &firstPass);
  rec.values["window_s"] = w.end - w.start;
  rec.values["cpu_window_s"] = w.cpu;
  rec.values["passes"] = w.passes;
  rec.values["units"] = w.units;
  rec.values["peak_rss_mb"] = peakRssMb();

  // Output quality of the first pass, outside the timed window.
  LithoSimulator evalSim(windowOptics);
  evalSim.setKernelCacheDir(cfg.kernelCacheDir);
  evalSim.warmKernels(focuses);
  for (const ChipRun& run : firstPass) {
    const ChipQuality q =
        evaluateChip(evalSim, run.result.partition,
                     run.result.stitched.maskBinary, run.result.chipTarget);
    rec.values["epe_violations"] += static_cast<double>(q.epe);
    rec.values["pvband_nm2"] += q.pvbNm2;
  }
  if (!a.trace) return;

  const CounterSnap c0 = CounterSnap::take();
  gTracer.setEnabled(true);
  const Window t =
      runChipWindow(a, rec, cfg, window, true, &firstHash, nullptr);
  gTracer.setEnabled(false);
  addCounterDeltas(rec, c0, CounterSnap::take(), t.units);
  rec.values["traced.window_start"] = t.start;
  rec.values["traced.window_s"] = t.end - t.start;

  // Probes on the first chip's data at the window grid.
  const ChipRun& run = firstPass.front();
  const ChipPartition& p = run.result.partition;
  const int win = p.windowGrid();
  std::vector<RealGrid> tileMasks;
  for (const TilePlan& tile : p.tiles) {
    tileMasks.push_back(toReal(
        cropWindow(run.result.stitched.maskBinary, tile, p.pixelNm, win)));
  }
  const TilePlan& centre = p.tiles[static_cast<std::size_t>(
      (p.tileRows / 2) * p.tileCols + p.tileCols / 2)];
  const BitGrid target =
      cropWindow(run.result.chipTarget, centre, p.pixelNm, win);
  const RealGrid mask = toReal(
      cropWindow(run.result.stitched.maskBinary, centre, p.pixelNm, win));
  probeLithoMathOpcEval(rec, evalSim, mask, target, cfg.method, a.workDir);
  probeKernelLoad(rec, evalSim, focuses, cfg.kernelCacheDir);
  const Layout chip = replicateLayout(buildTestcase(run.cell), kChipReplicate,
                                      kChipReplicate);
  probeTileCache(rec, chip, cfg, tileMasks, a.workDir);
  probeExecutor(rec);
}

void runServeStream(const Args& a, Record& rec) {
  const double window = a.trace ? a.seconds / 2 : a.seconds;
  const int jobs = std::max(kServeMinJobs,
                            static_cast<int>(window * kServeRatePerSec));
  setParallelism(kServeExecutorWorkers);
  serve::ServeConfig sc;
  sc.workers = kServeWorkers;
  // The admission queue holds a whole stream: a stall of the shared machine
  // shows as queueing delay in the latency tail, never as a refused job. A
  // job refused even so still counts as failed.
  sc.queueCapacity = jobs;
  const std::string setupCase = "random:" + std::to_string(a.seed);

  // Set-up, three times: service start plus the first (warm-pool) job.
  std::unique_ptr<serve::JobService> service;
  std::string firstHash;
  for (int rep = 0; rep < 3; ++rep) {
    service.reset();
    sc.workDir = a.workDir + "/serve_" + std::to_string(rep);
    sc.patternCacheDir = sc.workDir + "/store";
    fs::remove_all(sc.workDir);
    const double s0 = now();
    service = std::make_unique<serve::JobService>(sc);
    const JobTrace j = runOneJob(*service, setupCase);
    rec.add("setup_s", now() - s0);
    rec.check(j.state == "done", "set-up job " + setupCase + " is " + j.state);
    if (rep == 0) {
      firstHash = j.maskHash;
    } else {
      rec.add("opc.mask_repeatable", j.maskHash == firstHash ? 1 : 0);
    }
  }

  auto account = [&](const StreamStats& st, const std::string& prefix) {
    for (const JobTrace& j : st.jobs) {
      ++rec.attempted;
      if (j.state != "done") ++rec.failed;
      rec.check(j.state == "done", j.caseName + " ended " + j.state);
      // A job that did not finish misses every latency limit.
      rec.add(prefix + "unit_ms", j.state == "done"
                                      ? (j.end - j.due) * 1e3
                                      : HUGE_VAL);
      rec.hashes.push_back({j.caseName, j.maskHash});
    }
    rec.add(prefix + "pass_s", st.window.end - st.window.start);
  };

  const StreamStats st = runStream(*service, a.seed, jobs, false, -1);
  account(st, "");
  rec.values["window_s"] = st.window.end - st.window.start;
  rec.values["cpu_window_s"] = st.window.cpu;
  rec.values["passes"] = 1;
  rec.values["units"] = jobs;
  rec.values["peak_rss_mb"] = peakRssMb();

  StreamStats traced;
  int streamSpan = -1;
  if (a.trace) {
    const CounterSnap c0 = CounterSnap::take();
    gTracer.setEnabled(true);
    streamSpan = gTracer.open("bench.serve_stream");
    traced = runStream(*service, a.seed ^ 0x5eedull, jobs, true, streamSpan);
    gTracer.close(streamSpan);
    gTracer.setEnabled(false);
    addCounterDeltas(rec, c0, CounterSnap::take(), jobs);
    account(traced, "traced.");
    rec.values["traced.window_start"] = traced.window.start;
    rec.values["traced.window_s"] = traced.window.end - traced.window.start;
  }
  service->drain(serve::DrainMode::kFinish);
  service.reset();

  // Output quality: read each finished job's mask back from the pattern
  // store it was inserted into, check it against the reported hash, and
  // evaluate it. Outside the timed window.
  OpticsConfig optics;
  optics.pixelNm = serve::JobSpec{}.pixelNm;
  const IltConfig ilt =
      defaultIltConfig(OpcMethod::kMosaicFast, optics.pixelNm);
  LithoSimulator sim(optics);
  for (const double f : focusValues(ilt)) {
    const double b0 = now();
    sim.warmKernels({f});
    rec.add("litho.kernels.build_ms", (now() - b0) * 1e3);
  }
  PatternStore store(PatternStoreConfig{sc.patternCacheDir, 0});
  RealGrid probeMask;
  BitGrid probeTarget;
  Layout probeLayout;
  for (const JobTrace& j : st.jobs) {
    if (j.state != "done") continue;
    const Layout layout = buildRandomClip(
        std::strtoull(j.caseName.c_str() + 7, nullptr, 10));
    const BitGrid target = rasterize(layout, optics.pixelNm);
    const TileFingerprint fp = fingerprintWindow(
        layout, RectNm{0, 0, layout.sizeNm, layout.sizeNm}, optics.pixelNm,
        solverConfigDigest(sim.optics(), ilt,
                           static_cast<int>(OpcMethod::kMosaicFast),
                           layout.sizeNm, optics.pixelNm));
    const CacheLookup hit = store.lookup(fp);
    const bool found = hit.kind == CacheHitKind::kExact;
    rec.check(found && serve::maskHashHex(hit.solution.mask) == j.maskHash,
              j.caseName + ": stored mask missing or differs from reported "
                           "hash");
    if (!found) continue;
    rec.check(allFinite(hit.solution.mask), j.caseName + ": non-finite mask");
    const CaseEvaluation ev =
        evaluateMask(sim, hit.solution.mask, target, 0.0);
    rec.values["epe_violations"] += ev.epeViolations;
    rec.values["pvband_nm2"] += ev.pvbandAreaNm2;
    if (probeMask.size() == 0) {
      probeMask = hit.solution.mask;
      probeTarget = target;
      probeLayout = layout;
    }
  }
  if (!a.trace) return;

  // Layer samples of the traced stream.
  for (const JobTrace& j : traced.jobs) {
    if (j.state != "done") continue;
    rec.add("serve.run_ms", j.wallSeconds * 1e3);
    rec.add("serve.queue_wait_ms", (j.end - j.due - j.wallSeconds) * 1e3);
    rec.add("serve.generator_late_ms", (j.sent - j.due) * 1e3);
    rec.add("opc.iterations", j.iterations);
    for (std::size_t i = 0; i < j.iterationMs.size(); ++i) {
      rec.add(i == 0 ? "opc.first_iteration_ms" : "opc.iteration_ms",
              j.iterationMs[i]);
    }
    // Job span from due to terminal, split at the derived start of work.
    const double start = std::max(j.due, j.end - j.wallSeconds);
    const int span = gTracer.record("serve.job", j.due, j.end, streamSpan);
    gTracer.record("serve.queue_wait", j.due, start, span);
    gTracer.record("opc.job_run", start, j.end, span);
  }
  for (const Tracer::Span& s : gTracer.spans()) {
    if (s.name == "serve.submit") {
      rec.add("serve.submit_ms", (s.end - s.start) * 1e3);
    }
  }
  rec.add("serve.rejected", static_cast<double>(traced.rejected));
  rec.add("serve.retries", static_cast<double>(traced.retries));
  const PatternStoreStats& b = traced.cacheBefore;
  const PatternStoreStats& e = traced.cacheAfter;
  const double hits = static_cast<double>(e.hits() - b.hits());
  const double lookups = hits + static_cast<double>(e.misses - b.misses);
  rec.add("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  rec.add("cache.exact_hits", static_cast<double>(e.exactHits - b.exactHits));
  rec.add("cache.near_miss_hits",
          static_cast<double>(e.nearMissHits - b.nearMissHits));
  double busy = 0.0;
  for (const JobTrace& j : traced.jobs) busy += j.wallSeconds;
  rec.add("serve.busy_frac",
          busy / ((traced.window.end - traced.window.start) * kServeWorkers));

  probeLithoMathOpcEval(rec, sim, probeMask, probeTarget,
                        OpcMethod::kMosaicFast, a.workDir);
  probeKernelLoad(rec, sim, focusValues(ilt), a.workDir + "/probe_kernels");
  // Pattern-store probes on the serve data: the whole clip is the core.
  {
    const std::uint64_t configHash = solverConfigDigest(
        sim.optics(), ilt, static_cast<int>(OpcMethod::kMosaicFast),
        probeLayout.sizeNm, optics.pixelNm);
    const RectNm core{0, 0, probeLayout.sizeNm, probeLayout.sizeNm};
    std::mt19937_64 rng(a.seed);
    std::vector<TileFingerprint> fps;
    for (int i = 0; i < 20; ++i) {
      const Layout layout = buildRandomClip(rng());
      const double t0 = now();
      fps.push_back(
          fingerprintWindow(layout, core, optics.pixelNm, configHash));
      rec.add("cache.fingerprint_ms", (now() - t0) * 1e3);
    }
    probeStore(rec, fps, std::vector<RealGrid>(fps.size(), probeMask),
               a.workDir + "/probe_store");
  }
  probeExecutor(rec);
}

// ---------------------------------------------------------------- main

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->workDir = v;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->workDir.empty() && !a->out.empty() &&
         a->seconds > 0;
}

template <typename T, typename Render>
std::string jsonArray(const std::vector<T>& items, Render render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += render(items[i]);
  }
  return out + "]";
}

template <typename Value, typename Render>
std::string jsonMap(const std::map<std::string, Value>& items, Render render) {
  telemetry::JsonObject obj;
  for (const auto& [k, v] : items) obj.setRaw(k, render(v));
  return obj.str();
}

void writeRecord(const Args& a, const Record& rec) {
  telemetry::JsonObject hw;
  hw.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  hw.set("avx2", exec::cpuHasAvx2());
  hw.set("compiler", BENCH_COMPILER);
  hw.set("build_type", BENCH_BUILD_TYPE);
  hw.set("backend", exec::currentBackend().name());
  hw.set("executor_workers", hardwareParallelism());

  const auto number = [](double v) { return telemetry::jsonNumber(v); };
  telemetry::JsonObject doc;
  doc.set("workload", a.workload);
  doc.set("seed", static_cast<unsigned long long>(a.seed));
  doc.setRaw("hardware", hw.str());
  doc.set("attempted", rec.attempted);
  doc.set("failed", rec.failed);
  doc.setRaw("check_failures", jsonArray(rec.checkFailures, jsonString));
  doc.setRaw("hashes", jsonArray(rec.hashes, [](const auto& h) {
               return "[" + jsonString(h.first) + "," + jsonString(h.second) +
                      "]";
             }));
  doc.setRaw("values", jsonMap(rec.values, number));
  doc.setRaw("samples", jsonMap(rec.samples, [&](const auto& vs) {
               return jsonArray(vs, number);
             }));
  doc.setRaw("spans", jsonArray(gTracer.spans(), [&](const Tracer::Span& sp) {
               return "[" + jsonString(sp.name) + "," + number(sp.start) +
                      "," + number(sp.end) + "," +
                      std::to_string(sp.parent) + "]";
             }));
  std::ofstream(a.out, std::ios::trunc) << doc.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: mosaic_bench --workload clip_cold|chip_repeat|"
                 "serve_stream --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR --out FILE\n");
    return 2;
  }
  setLogLevel(LogLevel::kWarn);
  // What the apps do at startup: auto backend, hardware worker count.
  exec::setCurrentBackend(*exec::findBackend("auto"));
  setParallelism(0);
  fs::create_directories(a.workDir);

  Record rec;
  try {
    if (a.workload == "clip_cold") {
      runClipCold(a, rec);
    } else if (a.workload == "chip_repeat") {
      runChipRepeat(a, rec);
    } else if (a.workload == "serve_stream") {
      runServeStream(a, rec);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
  writeRecord(a, rec);
  return 0;
}
