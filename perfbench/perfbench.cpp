// perfbench - the repository benchmark.
//
// One binary runs one of two workloads for a fixed wall-clock budget and
// prints one JSON object: {"correct", "attempted", "failed", "metrics",
// "info"}. perfbench/run.py builds it, adds host facts and prints the
// benchmark's result line; BENCHMARK.json at the repository root lists the
// workloads, the metrics and why each was chosen.
//
//   perfbench --workload read-layouts|tune-cold --seed N
//             --seconds S --trace 0|1 --pins perfbench/pins.json
//             [--spans-out FILE]
//   perfbench --workload W --seed N --write-pins    (reference interpreter)
//
// Layers are measured from outside: every call the benchmark makes into a
// module's public functions (gravit, layout, vgpu progcache / interp /
// timing, tune, telemetry) is timed. With --trace 0 the passes run
// untraced and the end-to-end metrics are printed. With --trace 1 passes
// alternate traced and untraced; a traced pass records one span per call
// (name, start, end, parent span, pass id, with the launch's LaunchStats
// counts beside it), the spans stay in memory and are written to
// --spans-out at exit, and the per-layer metrics are computed from them.
//
// Correctness: every launch's LaunchStats::core() is compared with values
// pinned once from the reference interpreter (--write-pins regenerates
// them); far-field accelerations are compared with gravit::farfield_direct;
// read-kernel sums with a host sum; the tuner's winner with the paper's.
// Each mismatch or exception is one failed operation.
//
// Executors get only `threads`, `driver` and `reference` (for the pins),
// plus a `sink` in the traced run's telemetry probe; every other option
// keeps the default the library ships.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gravit/forces_cpu.hpp"
#include "gravit/kernels.hpp"
#include "gravit/spawn.hpp"
#include "layout/microbench.hpp"
#include "layout/plan.hpp"
#include "layout/record.hpp"
#include "layout/transform.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/json.hpp"
#include "telemetry/serialize.hpp"
#include "tune/space.hpp"
#include "tune/tuner.hpp"
#include "vgpu/device.hpp"
#include "vgpu/executor.hpp"
#include "vgpu/progcache.hpp"
#include "vgpu/timing.hpp"

namespace {

using telemetry::JsonValue;
using Clock = std::chrono::steady_clock;

// ---- workload sizes ------------------------------------------------------

// Read passes stay short (about 0.1 s; tune-cold's search takes 1.5-3 s)
// so that a run yields enough passes for their fastest times. At kReadN = 65536 the
// read launches' host working set (~10 MB) made read-layouts spread 0.23 to
// 0.29 from run to run; at 16384 it spread 0.07 to 0.11 in interleaved runs.
constexpr std::uint32_t kFarfieldN = 1024;   ///< particles (tune-cold replay)
constexpr std::uint32_t kReadN = 16'384;     ///< records per read launch
constexpr std::uint32_t kReadBlock = 128;
/// Set-ups before the first pass, and again after every pass: setup_s is
/// the fastest of all of them, spread over the whole run.
constexpr int kSetupReps = 5;
/// The tuner's paper-space winner (docs/tuning.md), checked every pass.
constexpr const char* kTuneWinner = "SoAoaS+unroll128+icm+b128@cuda10";
/// |gpu - direct| <= kAccelTol * max(1, |direct|) per component. The kernel
/// and farfield_direct share the summation order; icm reassociates the
/// softening term, which moves results by a few ulps.
constexpr float kAccelTol = 1e-4f;

// ---- host clocks -----------------------------------------------------------

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host threads for the multi-threaded timed launches: min(4, nproc - 1).
/// One CPU is left to the rest of a shared host: with one busy process
/// beside the benchmark, 4 threads on a 4-CPU host lost 28-36% of their
/// timed throughput (they wait at every cycle-bucket barrier for the thread
/// that shares a CPU), 3 threads lost none.
std::uint32_t mt_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<std::uint32_t>(std::clamp(cpus - 1, 1, 4));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest percentile with at least ten samples beyond it: the sorted
/// sample at index N-11 (percentile 100*(N-10)/N); the median below 21
/// samples. Reported beside the result, not scored: on a shared host it
/// measures the neighbours (PREDICTIONS.md).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
};
Tail tail_of(std::vector<double> v) {
  if (v.size() < 21) return {median(std::move(v)), 50.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

/// The host-time statistic of every end-to-end metric: the fastest of
/// repeated samples of the same work. On a shared VM the host's speed
/// swings by up to 2x within seconds (a plain ALU loop timed in 10 ms slices
/// for two minutes on 4 vCPUs: per-10-s medians 5.7-9.0 ms, minima
/// 4.9-5.6 ms), so medians and tails measure the neighbours. Over six 30 s
/// far-field runs the 1-thread timed launch's fastest time spread 0.02 of
/// itself, its 10th percentile 0.05 and its median 0.25; the fastest time
/// is what a change to the program moves. Over tens of minutes the host's
/// fastest speed drifts too, by up to 1.9x; no statistic inside a run can
/// remove that.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the run started
  double end_s = 0.0;
  double cpu_s = 0.0;    ///< process CPU time over the span
  int parent = -1;       ///< index of the enclosing span, -1 at the root
  int pass = -1;         ///< pass id; -1 for set-up and checks
  std::uint32_t threads = 0;          ///< timed launches only
  std::optional<vgpu::LaunchStats> stats;  ///< launches only
};

struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Times calls into the program. Every call is timed; spans are kept only
/// while tracing is on, in memory, until to_json() at the end of the run.
class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  void set_tracing(bool on) { tracing_ = on; }
  void set_pass(int pass) { pass_ = pass; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Run `fn` as span `name`; `stats`, when given, is read after `fn`
  /// returns and attached to the span (the launch's counts).
  template <class F>
  Timing measure(const char* name, F&& fn,
                 const vgpu::LaunchStats* stats = nullptr,
                 std::uint32_t threads = 0) {
    int index = -1;
    if (tracing_) {
      index = static_cast<int>(spans_.size());
      Span s;
      s.name = name;
      s.parent = open_.empty() ? -1 : open_.back();
      s.pass = pass_;
      s.threads = threads;
      spans_.push_back(std::move(s));
      open_.push_back(index);
    }
    const double c0 = cpu_now();
    const Clock::time_point t0 = Clock::now();
    struct Close {  // pops the span on exceptions too
      Recorder* r;
      int index;
      ~Close() {
        if (index >= 0) r->open_.pop_back();
      }
    } close{this, index};
    fn();
    const Clock::time_point t1 = Clock::now();
    const Timing t{std::chrono::duration<double>(t1 - t0).count(),
                   cpu_now() - c0};
    if (index >= 0) {
      Span& s = spans_[static_cast<std::size_t>(index)];
      s.start_s = std::chrono::duration<double>(t0 - origin_).count();
      s.end_s = std::chrono::duration<double>(t1 - origin_).count();
      s.cpu_s = t.cpu_s;
      if (stats != nullptr) s.stats = *stats;
    }
    return t;
  }

  [[nodiscard]] JsonValue to_json() const {
    JsonValue out = JsonValue::array();
    for (const Span& s : spans_) {
      JsonValue j = JsonValue::object();
      j["name"] = s.name;
      j["start_s"] = s.start_s;
      j["end_s"] = s.end_s;
      j["cpu_s"] = s.cpu_s;
      j["parent"] = s.parent;
      j["pass"] = s.pass;
      if (s.threads != 0) j["threads"] = s.threads;
      if (s.stats) j["stats"] = telemetry::to_json(*s.stats);
      out.push_back(std::move(j));
    }
    return out;
  }

 private:
  Clock::time_point origin_;
  bool tracing_ = false;
  int pass_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- pins: LaunchStats::core() from the reference interpreter --------------

using Fields = std::vector<std::pair<std::string, double>>;

/// Every field of LaunchStats::core(), by name.
Fields core_fields(const vgpu::LaunchStats& full) {
  const vgpu::LaunchStats s = full.core();
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  Fields f{
      {"cycles", u(s.cycles)},
      {"occupancy", s.occupancy},
      {"blocks_per_sm", u(s.blocks_per_sm)},
      {"warp_instructions", u(s.warp_instructions)},
      {"divergent_branches", u(s.divergent_branches)},
      {"sm_idle_cycles", u(s.sm_idle_cycles)},
      {"sm_issue_cycles", u(s.sm_issue_cycles)},
      {"global_requests", u(s.global_requests)},
      {"global_transactions", u(s.global_transactions)},
      {"global_bytes", u(s.global_bytes)},
      {"coalesced_requests", u(s.coalesced_requests)},
      {"uncoalesced_requests", u(s.uncoalesced_requests)},
      {"shared_requests", u(s.shared_requests)},
      {"shared_conflict_extra", u(s.shared_conflict_extra)},
      {"local_requests", u(s.local_requests)},
      {"const_requests", u(s.const_requests)},
      {"tex_requests", u(s.tex_requests)},
      {"tex_hits", u(s.tex_hits)},
      {"tex_misses", u(s.tex_misses)},
      {"barriers", u(s.barriers)},
      {"blocks_total", u(s.blocks_total)},
      {"blocks_simulated", u(s.blocks_simulated)},
      {"extrapolation_factor", s.extrapolation_factor},
  };
  for (std::size_t r = 0; r < s.region_instructions.size(); ++r) {
    f.emplace_back("region_instructions." + std::to_string(r),
                   u(s.region_instructions[r]));
  }
  for (std::size_t c = 0; c < s.instr_class_counts.size(); ++c) {
    f.emplace_back("instr_class_counts." + std::to_string(c),
                   u(s.instr_class_counts[c]));
  }
  return f;
}

JsonValue fields_json(const Fields& f) {
  JsonValue j = JsonValue::object();
  for (const auto& [k, v] : f) j[k] = v;
  return j;
}

// ---- launches --------------------------------------------------------------

enum class Exec { kFunctional, kTimed1, kTimedN };

/// One program with its device inputs, launched by the passes.
struct Kernel {
  std::string label;  ///< "farfield-SoAoaS+unroll128+icm", "read-AoS", ...
  vgpu::Program prog;
  vgpu::LaunchConfig cfg{1, 128};
  std::vector<std::uint32_t> params;
  vgpu::Buffer out;
  std::uint32_t n = 0;
};

std::string pin_key(const Kernel& k, Exec e, vgpu::DriverModel d) {
  return k.label + "/n" + std::to_string(k.n) + "/" +
         (e == Exec::kFunctional ? "functional" : "timed") + "/" +
         vgpu::to_string(d);
}

struct LaunchRecord {
  Exec exec = Exec::kFunctional;
  std::string key;  ///< pin_key(): the same launch in every pass
  Timing t;
  vgpu::LaunchStats stats;
};

/// What a pass measured, for the end-to-end metrics.
struct PassRecord {
  Timing t;
  std::vector<LaunchRecord> launches;
};

// ---- run state -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool write_pins = false;
  std::string pins_path;
  std::string spans_out;
};

class Run {
 public:
  explicit Run(const Options& opt) : opt_(opt), threads_n_(mt_threads()) {}

  Recorder rec;
  std::vector<double> setup_s;
  std::vector<PassRecord> passes;        ///< measured, untraced
  std::vector<PassRecord> traced;        ///< measured, traced (--trace 1)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;     ///< first few, for the report
  JsonValue written_pins = JsonValue::object();
  JsonValue info = JsonValue::object();

  [[nodiscard]] const Options& opt() const { return opt_; }
  [[nodiscard]] std::uint32_t threads_n() const { return threads_n_; }

  void load_pins(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read pins file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::optional<JsonValue> doc = JsonValue::parse(ss.str());
    if (!doc || !doc->is_object()) {
      throw std::runtime_error("pins file " + path + " is not a JSON object");
    }
    pins_ = std::move(*doc);
  }

  /// One checked operation: `ok` false or an exception counts as failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  /// Run `fn`; an exception it throws is one failed operation.
  template <class F>
  bool guarded(const char* what, F&& fn) {
    try {
      fn();
      return true;
    } catch (const std::exception& ex) {
      ++attempted;
      fail(std::string(what) + ": " + ex.what());
      return false;
    }
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }

  /// Launch `k` on `dev`, timed as one span; the result's core() is
  /// checked against the pins (or, with --write-pins, pinned from the
  /// reference interpreter).
  LaunchRecord launch(vgpu::Device& dev, const Kernel& k, Exec e,
                      vgpu::DriverModel driver = vgpu::DriverModel::kCuda10) {
    LaunchRecord r;
    r.exec = e;
    const std::string key = pin_key(k, e, driver);
    r.key = key;
    ++attempted;
    try {
      const std::uint32_t threads =
          e == Exec::kTimedN ? threads_n_ : (e == Exec::kTimed1 ? 1u : 0u);
      if (e == Exec::kFunctional) {
        vgpu::FunctionalOptions fo;
        fo.driver = driver;
        fo.reference = opt_.write_pins;
        r.t = rec.measure("vgpu.run_functional", [&] {
          r.stats = vgpu::run_functional(k.prog, dev.spec(), dev.gmem(), k.cfg,
                                         k.params, fo);
        }, &r.stats);
      } else {
        vgpu::TimingOptions to;
        to.driver = driver;
        to.threads = threads;
        to.reference = opt_.write_pins;
        r.t = rec.measure("vgpu.run_timed", [&] {
          r.stats = vgpu::run_timed(k.prog, dev.spec(), dev.gmem(), k.cfg,
                                    k.params, to);
        }, &r.stats, threads);
      }
      const Fields got = core_fields(r.stats);
      if (opt_.write_pins) {
        written_pins[key] = fields_json(got);
        return r;
      }
      const JsonValue* want = pins_.find(key);
      if (want == nullptr) {
        fail(key + ": no pinned values (regenerate with --write-pins)");
        return r;
      }
      for (const auto& [name, value] : got) {
        const JsonValue* w = want->find(name);
        if (w == nullptr || !w->is_number() || w->as_number() != value) {
          fail(key + ": " + name + " = " + std::to_string(value) +
               ", pinned " +
               (w != nullptr && w->is_number() ? std::to_string(w->as_number())
                                               : std::string("missing")));
          return r;
        }
      }
    } catch (const std::exception& ex) {
      fail(key + ": " + ex.what());
    }
    return r;
  }

  /// Compile `prog` cold into the process-wide decode cache (the "first
  /// cold compile" of set-up; later launches hit the cache).
  void compile(const vgpu::Program& prog) {
    rec.measure("vgpu.acquire_compiled", [&] {
      (void)vgpu::acquire_compiled(prog, /*use_cache=*/true);
    });
  }

 private:
  Options opt_;
  std::uint32_t threads_n_;
  JsonValue pins_ = JsonValue::object();
};

/// A workload: set-up (repeated; the last repetition is kept) and one pass.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup(Run& run) = 0;
  /// The launches and calls of one pass; checks go in verify().
  virtual void pass(Run& run, PassRecord& rec) = 0;
  /// Correctness checks on what the last pass left behind (untimed).
  virtual void verify(Run& run) = 0;
  /// The kernel whose timed launch the telemetry sink probe repeats.
  virtual const Kernel& probe_kernel() const = 0;
  virtual vgpu::Device& device() = 0;
};

// ---- far-field -------------------------------------------------------------

/// Far-field kernels over one spawned particle set: the `tune-cold` winner
/// replay.
struct FarfieldSet {
  std::unique_ptr<vgpu::Device> dev;
  gravit::ParticleSet set;
  std::vector<gravit::Vec3> direct;  ///< farfield_direct reference
  std::vector<Kernel> kernels;

  void setup(Run& run, const std::vector<gravit::KernelOptions>& variants) {
    vgpu::decode_cache_clear();
    kernels.clear();
    run.rec.measure("vgpu.Device", [&] {
      dev = std::make_unique<vgpu::Device>(vgpu::g80_spec(), 1u << 20);
    });
    run.rec.measure("gravit.spawn_uniform_cube", [&] {
      set = gravit::spawn_uniform_cube(kFarfieldN, 1.0f, run.opt().seed);
    });
    for (const gravit::KernelOptions& kopt : variants) {
      gravit::BuiltKernel built;
      run.rec.measure("gravit.make_farfield_kernel",
                      [&] { built = gravit::make_farfield_kernel(kopt); });
      const std::uint32_t n_pad =
          (kFarfieldN + kopt.block - 1) / kopt.block * kopt.block;
      gravit::ParticleSet padded = set;
      padded.pad_to(n_pad);
      const std::vector<float> flat = padded.flatten();
      std::vector<std::byte> image;
      run.rec.measure("layout.pack",
                      [&] { image = layout::pack(built.phys, flat, n_pad); });
      Kernel k;
      k.label = "farfield-" + gravit::kernel_label(kopt);
      k.n = kFarfieldN;
      run.rec.measure("vgpu.Device.memcpy_h2d", [&] {
        const vgpu::Buffer img = dev->malloc(image.size());
        dev->memcpy_h2d(img, image);
        k.out = dev->malloc(static_cast<std::size_t>(built.output_bytes(n_pad)));
        for (const std::uint64_t base : built.phys.group_bases(n_pad)) {
          k.params.push_back(img.addr + static_cast<std::uint32_t>(base));
        }
      });
      k.params.push_back(k.out.addr);
      k.params.push_back(n_pad / kopt.block);
      k.cfg = vgpu::LaunchConfig{n_pad / kopt.block, kopt.block};
      k.prog = std::move(built.prog);
      run.compile(k.prog);
      kernels.push_back(std::move(k));
    }
  }

  void launch_all(Run& run, PassRecord& rec) {
    for (const Kernel& k : kernels) {
      for (const Exec e : {Exec::kFunctional, Exec::kTimed1, Exec::kTimedN}) {
        rec.launches.push_back(run.launch(*dev, k, e));
      }
    }
  }

  void verify(Run& run) {
    if (direct.empty()) {
      run.rec.measure("gravit.farfield_direct",
                      [&] { direct = gravit::farfield_direct(set); });
    }
    for (const Kernel& k : kernels) {
      const std::uint32_t n_pad = k.cfg.grid_blocks * k.cfg.block_threads;
      std::vector<float> raw(static_cast<std::size_t>(n_pad) * 3);
      dev->download<float>(raw, k.out);
      bool ok = true;
      for (std::size_t i = 0; i < direct.size() && ok; ++i) {
        const float want[3] = {direct[i].x, direct[i].y, direct[i].z};
        for (std::size_t c = 0; c < 3; ++c) {
          const float got = raw[c * n_pad + i];
          ok = ok && std::fabs(got - want[c]) <=
                         kAccelTol * std::max(1.0f, std::fabs(want[c]));
        }
      }
      run.check(ok, k.label + ": accelerations differ from farfield_direct");
    }
  }
};

gravit::KernelOptions winner_options() {
  gravit::KernelOptions k;  // SoAoaS, block 128
  k.unroll = 128;
  k.icm = true;
  return k;
}

// ---- read-layouts ----------------------------------------------------------

/// splitmix64: the read kernel's record values, from the seed.
std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr vgpu::DriverModel kDrivers[] = {vgpu::DriverModel::kCuda10,
                                          vgpu::DriverModel::kCuda11,
                                          vgpu::DriverModel::kCuda22};

class ReadLayouts final : public Workload {
 public:
  void setup(Run& run) override {
    vgpu::decode_cache_clear();
    kernels_.clear();
    const std::uint32_t fields = layout::gravit_record().num_fields();
    run.rec.measure("vgpu.Device", [&] {
      dev_ = std::make_unique<vgpu::Device>(vgpu::g80_spec(), 4u << 20);
    });
    data_.assign(static_cast<std::size_t>(kReadN) * fields, 0.0f);
    std::uint64_t state = run.opt().seed;
    for (float& v : data_) {
      v = static_cast<float>(splitmix(state) >> 40) / static_cast<float>(1 << 24);
    }
    for (const layout::SchemeKind scheme :
         {layout::SchemeKind::kAoS, layout::SchemeKind::kSoA,
          layout::SchemeKind::kAoaS, layout::SchemeKind::kSoAoaS}) {
      const layout::PhysicalLayout phys =
          layout::plan_layout(layout::gravit_record(), scheme);
      Kernel k;
      k.label = std::string("read-") + layout::to_string(scheme);
      k.n = kReadN;
      run.rec.measure("layout.make_read_kernel",
                      [&] { k.prog = layout::make_read_kernel(phys); });
      std::vector<std::byte> image;
      run.rec.measure("layout.pack",
                      [&] { image = layout::pack(phys, data_, kReadN); });
      run.rec.measure("vgpu.Device.memcpy_h2d", [&] {
        const vgpu::Buffer img = dev_->malloc(image.size());
        dev_->memcpy_h2d(img, image);
        k.out = dev_->malloc(static_cast<std::size_t>(kReadN) * 8);
        for (const std::uint64_t base : phys.group_bases(kReadN)) {
          k.params.push_back(img.addr + static_cast<std::uint32_t>(base));
        }
      });
      k.params.push_back(k.out.addr);
      k.cfg = vgpu::LaunchConfig{kReadN / kReadBlock, kReadBlock};
      run.compile(k.prog);
      kernels_.push_back(std::move(k));
    }
  }

  void pass(Run& run, PassRecord& rec) override {
    for (const Kernel& k : kernels_) {
      rec.launches.push_back(run.launch(*dev_, k, Exec::kFunctional));
      for (const vgpu::DriverModel d : kDrivers) {
        rec.launches.push_back(run.launch(*dev_, k, Exec::kTimed1, d));
        rec.launches.push_back(run.launch(*dev_, k, Exec::kTimedN, d));
      }
    }
  }

  /// Each thread stores the sum of its record's fields; the host sums in
  /// the same field order.
  void verify(Run& run) override {
    const std::uint32_t fields = layout::gravit_record().num_fields();
    for (const Kernel& k : kernels_) {
      std::vector<float> sums(kReadN);
      dev_->download<float>(sums, vgpu::Buffer{k.out.addr, kReadN * 4u});
      bool ok = true;
      for (std::uint32_t i = 0; i < kReadN && ok; ++i) {
        float want = 0.0f;
        for (std::uint32_t f = 0; f < fields; ++f) {
          want += data_[static_cast<std::size_t>(i) * fields + f];
        }
        ok = std::fabs(sums[i] - want) <= 1e-5f * std::max(1.0f, std::fabs(want));
      }
      run.check(ok, k.label + ": record sums differ from the host sum");
    }
  }
  const Kernel& probe_kernel() const override { return kernels_.front(); }
  vgpu::Device& device() override { return *dev_; }

 private:
  std::unique_ptr<vgpu::Device> dev_;
  std::vector<float> data_;
  std::vector<Kernel> kernels_;
};

// ---- tune-cold -------------------------------------------------------------

/// The paper space searched at reduced sampling fidelity. The defaults
/// (8 sample tiles, 2 waves, n_ref 4096) take about 18 s a search, too long
/// to sample; this fidelity still builds all 120 configs, prunes 32, samples
/// 88, refines 5 and ranks the paper's winner first.
tune::TunerOptions tuner_options() {
  tune::TunerOptions o;
  o.sample_tiles = 2;
  o.max_waves = 1;
  o.n_ref = 512;
  return o;
}

class TuneCold final : public Workload {
 public:
  void setup(Run& run) override { ff_.setup(run, {winner_options()}); }

  /// A cold search (no TuningCache, empty decode cache), then the winner
  /// replayed through run_functional, run_timed with 1 thread and run_timed
  /// with N threads, kReplays times. The replays are the benchmark's
  /// issue-bound far-field measurement (a separate far-field workload was
  /// dropped so that each run could be longer); four a pass give the
  /// Minstr/s metrics enough launches for their fastest times.
  void pass(Run& run, PassRecord& rec) override {
    vgpu::decode_cache_clear();
    tune::TuneReport report;
    run.rec.measure("tune.tune", [&] {
      report = tune::tune(tune::ConfigSpace::paper_space(), vgpu::g80_spec(),
                          tuner_options());
    });
    programs_compiled_ = vgpu::decode_cache_size();
    report_ = std::move(report);
    for (int i = 0; i < kReplays; ++i) ff_.launch_all(run, rec);
  }

  void verify(Run& run) override {
    run.check(!report_.ranked.empty() &&
                  report_.best().config.full_label() == kTuneWinner,
              std::string("tuner winner is ") +
                  (report_.ranked.empty() ? std::string("none")
                                          : report_.best().config.full_label()) +
                  ", expected " + kTuneWinner);
    ff_.verify(run);
  }
  const Kernel& probe_kernel() const override { return ff_.kernels.front(); }
  vgpu::Device& device() override { return *ff_.dev; }

  [[nodiscard]] const tune::TuneReport& report() const { return report_; }
  [[nodiscard]] std::size_t programs_compiled() const { return programs_compiled_; }

 private:
  FarfieldSet ff_;
  static constexpr int kReplays = 4;
  tune::TuneReport report_;
  std::size_t programs_compiled_ = 0;
};

// ---- metrics ---------------------------------------------------------------

/// Average clock() cycles per 4-byte read of the Sec. III kernel at Fig. 10's
/// size: the measurement bench::run_read_benchmark makes, on a device sized
/// for it rather than the 512 MB default.
double fig10_cycles_per_read(layout::SchemeKind scheme, vgpu::DriverModel d) {
  constexpr std::uint32_t kN = 4096;
  const std::uint32_t fields = layout::gravit_record().num_fields();
  const layout::PhysicalLayout phys =
      layout::plan_layout(layout::gravit_record(), scheme);
  const vgpu::Program prog = layout::make_read_kernel(phys);
  std::vector<float> data(static_cast<std::size_t>(kN) * fields);
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<float>(k % 101) * 0.01f;
  }
  const std::vector<std::byte> image = layout::pack(phys, data, kN);
  vgpu::Device dev(vgpu::g80_spec(), 4u * 1024 * 1024);
  const vgpu::Buffer img = dev.malloc(image.size());
  dev.memcpy_h2d(img, image);
  const vgpu::Buffer out = dev.malloc(static_cast<std::size_t>(kN) * 8);
  std::vector<std::uint32_t> params;
  for (const std::uint64_t base : phys.group_bases(kN)) {
    params.push_back(img.addr + static_cast<std::uint32_t>(base));
  }
  params.push_back(out.addr);
  vgpu::TimingOptions to;
  to.driver = d;
  (void)vgpu::run_timed(prog, dev.spec(), dev.gmem(),
                        vgpu::LaunchConfig{kN / kReadBlock, kReadBlock}, params, to);
  std::vector<std::uint32_t> raw(static_cast<std::size_t>(kN) * 2);
  dev.download<std::uint32_t>(raw, out);
  double total = 0.0;
  for (std::uint32_t k = 0; k < kN; ++k) total += raw[kN + k];
  return total / kN / fields;
}

/// Fig. 10 error: mean |simulated - paper| / paper over {AoS, SoA, AoaS,
/// SoAoaS} x {CUDA 1.0, 1.1, 2.2}. The paper values (bench::fig10_reference)
/// are read approximately off the published plot.
double fig10_model_error_pct() {
  double sum = 0.0;
  int count = 0;
  for (const vgpu::DriverModel d : kDrivers) {
    const bench::Fig10Reference ref = bench::fig10_reference(d);
    const std::pair<layout::SchemeKind, double> cells[] = {
        {layout::SchemeKind::kAoS, ref.aos},
        {layout::SchemeKind::kSoA, ref.soa},
        {layout::SchemeKind::kAoaS, ref.aoas},
        {layout::SchemeKind::kSoAoaS, ref.soaoas}};
    for (const auto& [scheme, paper] : cells) {
      sum += std::fabs(fig10_cycles_per_read(scheme, d) - paper) / paper;
      ++count;
    }
  }
  return 100.0 * sum / count;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Rate {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double instr = 0.0;
};

Rate rate_of(const PassRecord& p, Exec e) {
  Rate r;
  for (const LaunchRecord& l : p.launches) {
    if (l.exec != e) continue;
    r.wall_s += l.t.wall_s;
    r.cpu_s += l.t.cpu_s;
    r.instr += static_cast<double>(l.stats.warp_instructions);
  }
  return r;
}

/// Simulated warp instructions per host second for launches of kind `e`:
/// every distinct launch (kernel, executor, driver) contributes its
/// instructions and its fastest wall time in the run. Total instructions
/// over total wall time spread 0.06-0.21 of itself over ten seeds, because
/// the whole-run average follows the host.
double minstr_per_s(const std::vector<PassRecord>& passes, Exec e) {
  std::map<std::string, std::vector<double>> walls;
  std::map<std::string, double> instr;
  for (const PassRecord& p : passes) {
    for (const LaunchRecord& l : p.launches) {
      if (l.exec != e) continue;
      walls[l.key].push_back(l.t.wall_s);
      instr[l.key] = static_cast<double>(l.stats.warp_instructions);
    }
  }
  double wall_s = 0.0;
  double total = 0.0;
  for (const auto& [key, w] : walls) {
    wall_s += best(w);
    total += instr[key];
  }
  return ratio(total, wall_s) / 1e6;
}

/// A pass's time with every call at its fastest: each launch's fastest time
/// over the run's passes (a launch is matched by its position in the pass,
/// which every pass repeats), plus the fastest remainder - the pass's time
/// outside its launches (the tune-cold search). Over six far-field runs
/// this spread 0.05 of itself where the fastest whole pass spread 0.10: a
/// whole pass is 12-28 launches long, and one slow launch spoils it.
Timing best_pass(const std::vector<PassRecord>& passes) {
  if (passes.empty()) return {};
  const std::size_t n = passes.front().launches.size();
  std::vector<std::vector<double>> wall(n), cpu(n);
  std::vector<double> rest_wall, rest_cpu;
  for (const PassRecord& p : passes) {
    if (p.launches.size() != n) continue;
    Timing in;
    for (std::size_t i = 0; i < n; ++i) {
      wall[i].push_back(p.launches[i].t.wall_s);
      cpu[i].push_back(p.launches[i].t.cpu_s);
      in.wall_s += p.launches[i].t.wall_s;
      in.cpu_s += p.launches[i].t.cpu_s;
    }
    rest_wall.push_back(p.t.wall_s - in.wall_s);
    rest_cpu.push_back(p.t.cpu_s - in.cpu_s);
  }
  Timing t{best(rest_wall), best(rest_cpu)};
  for (std::size_t i = 0; i < n; ++i) {
    t.wall_s += best(wall[i]);
    t.cpu_s += best(cpu[i]);
  }
  return t;
}

void put(JsonValue& metrics, const std::string& name, double value,
         const char* unit) {
  JsonValue m = JsonValue::object();
  m["value"] = value;
  m["unit"] = unit;
  metrics[name] = std::move(m);
}

JsonValue end_to_end(Run& run) {
  JsonValue m = JsonValue::object();
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const PassRecord& p : run.passes) {
    wall.push_back(p.t.wall_s);
    cpu.push_back(p.t.cpu_s);
  }
  const Timing pass = best_pass(run.passes);
  put(m, "setup_s", best(run.setup_s), "s");
  put(m, "pass_s.best", pass.wall_s, "s");
  put(m, "pass_cpu_s.best", pass.cpu_s, "s");
  put(m, "functional_minstr_s", minstr_per_s(run.passes, Exec::kFunctional), "Minstr/s");
  put(m, "timed_minstr_s", minstr_per_s(run.passes, Exec::kTimed1), "Minstr/s");
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");
  put(m, "model_err_pct", fig10_model_error_pct(), "%");
  run.info["pass_samples"] = static_cast<std::uint64_t>(wall.size());
  const Tail tail = tail_of(wall);
  run.info["pass_s.p50"] = median(wall);
  run.info["pass_s.tail"] = tail.value;
  run.info["pass_s.tail_percentile"] = tail.percentile;
  run.info["pass_cpu_s.p50"] = median(cpu);
  run.info["setup_s.p50"] = median(run.setup_s);
  run.info["model_err_pct_note"] =
      "mean absolute relative error of simulated Fig. 10 cycles per 4-byte "
      "read vs values read approximately off the paper's plot "
      "(bench::fig10_reference); the model is otherwise unvalidated";
  return m;
}

/// Median duration (ms) of the spans named `name`.
double span_ms(const Recorder& rec, const char* name) {
  std::vector<double> v;
  for (const Span& s : rec.spans()) {
    if (s.name == name) v.push_back(1e3 * (s.end_s - s.start_s));
  }
  return median(v);
}

JsonValue per_layer(Run& run, Workload& w, const TuneCold* tc) {
  JsonValue m = JsonValue::object();
  const Recorder& rec = run.rec;
  put(m, "gravit.build_kernel_ms", span_ms(rec, "gravit.make_farfield_kernel"), "ms");
  put(m, "layout.pack_ms", span_ms(rec, "layout.pack"), "ms");
  put(m, "vgpu.progcache.compile_ms", span_ms(rec, "vgpu.acquire_compiled"), "ms");

  // Host time per unit of simulated work, over the traced passes.
  Rate fn, t1, tn;
  double t1_requests = 0.0;
  vgpu::LaunchStats sum;   // exact counts, the last traced pass
  vgpu::LaunchStats sum1;  // 1-thread timed launches of that pass
  double occupancy = 0.0;
  int timed1 = 0;
  for (const PassRecord& p : run.traced) {
    const Rate a = rate_of(p, Exec::kFunctional);
    const Rate b = rate_of(p, Exec::kTimed1);
    const Rate c = rate_of(p, Exec::kTimedN);
    fn.wall_s += a.wall_s, fn.instr += a.instr;
    t1.wall_s += b.wall_s, t1.cpu_s += b.cpu_s, t1.instr += b.instr;
    tn.wall_s += c.wall_s, tn.cpu_s += c.cpu_s;
  }
  if (!run.traced.empty()) {
    for (const PassRecord& p : run.traced) {
      for (const LaunchRecord& l : p.launches) {
        if (l.exec == Exec::kTimed1) {
          t1_requests += static_cast<double>(l.stats.global_requests);
        }
      }
    }
    for (const LaunchRecord& l : run.traced.back().launches) {
      const vgpu::LaunchStats& s = l.stats;
      sum.warp_instructions += s.warp_instructions;
      sum.global_requests += s.global_requests;
      sum.global_transactions += s.global_transactions;
      sum.shared_requests += s.shared_requests;
      sum.barriers += s.barriers;
      sum.coalesce_memo_hits += s.coalesce_memo_hits;
      sum.coalesce_memo_misses += s.coalesce_memo_misses;
      sum.conflict_memo_hits += s.conflict_memo_hits;
      sum.conflict_memo_misses += s.conflict_memo_misses;
      sum.timed_runs_issued += s.timed_runs_issued;
      sum.timed_run_fallbacks += s.timed_run_fallbacks;
      sum.traces_entered += s.traces_entered;
      sum.fused_boundary_ops += s.fused_boundary_ops;
      if (l.exec == Exec::kTimed1) {
        sum1.cycles += s.cycles;
        sum1.warp_instructions += s.warp_instructions;
        sum1.sm_idle_cycles += s.sm_idle_cycles;
        sum1.sm_issue_cycles += s.sm_issue_cycles;
        sum1.pick_heap_pops += s.pick_heap_pops;
        occupancy += s.occupancy;
        ++timed1;
      }
    }
  }
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  put(m, "vgpu.progcache.programs_compiled",
      tc != nullptr ? u(tc->programs_compiled()) : u(vgpu::decode_cache_size()),
      "count");
  put(m, "vgpu.interp.ns_per_instr", 1e9 * ratio(fn.wall_s, fn.instr), "ns");
  put(m, "vgpu.timing.ns_per_instr", 1e9 * ratio(t1.wall_s, t1.instr), "ns");
  put(m, "vgpu.timing.model_ns_per_instr",
      1e9 * ratio(t1.wall_s - fn.wall_s, t1.instr), "ns");
  put(m, "vgpu.timing.ns_per_global_request", 1e9 * ratio(t1.wall_s, t1_requests), "ns");
  // Multi-threaded throughput is per-layer, not end-to-end: a launch's wall
  // time varies by 2x from launch to launch (every cycle bucket wakes the
  // workers through a condition variable), and even the fastest of a run's
  // launches spread 0.10-0.25 of itself over ten runs of the same code.
  put(m, "vgpu.timing.mt_minstr_s", minstr_per_s(run.traced, Exec::kTimedN), "Minstr/s");
  put(m, "vgpu.timing.mt_speedup", ratio(t1.wall_s, tn.wall_s), "x");
  put(m, "vgpu.timing.mt_cpu_ratio", ratio(tn.cpu_s, t1.cpu_s), "x");
  put(m, "vgpu.warp_instructions", u(sum.warp_instructions), "count");
  put(m, "vgpu.global_requests", u(sum.global_requests), "count");
  put(m, "vgpu.global_transactions", u(sum.global_transactions), "count");
  put(m, "vgpu.shared_requests", u(sum.shared_requests), "count");
  put(m, "vgpu.barriers", u(sum.barriers), "count");
  put(m, "vgpu.coalesce_memo.hit_ratio",
      ratio(u(sum.coalesce_memo_hits),
            u(sum.coalesce_memo_hits + sum.coalesce_memo_misses)), "ratio");
  put(m, "vgpu.conflict_memo.hit_ratio",
      ratio(u(sum.conflict_memo_hits),
            u(sum.conflict_memo_hits + sum.conflict_memo_misses)), "ratio");
  put(m, "vgpu.runs.issued", u(sum.timed_runs_issued), "count");
  put(m, "vgpu.runs.fallback_ratio",
      ratio(u(sum.timed_run_fallbacks),
            u(sum.timed_runs_issued + sum.timed_run_fallbacks)), "ratio");
  put(m, "vgpu.traces.entered", u(sum.traces_entered), "count");
  put(m, "vgpu.traces.fused_ops", u(sum.fused_boundary_ops), "count");
  put(m, "vgpu.pick.heap_pops_per_instr",
      ratio(u(sum1.pick_heap_pops), u(sum1.warp_instructions)), "ratio");
  put(m, "vgpu.model.cycles", u(sum1.cycles), "cycles");
  put(m, "vgpu.model.ipc", ratio(u(sum1.warp_instructions), u(sum1.cycles)), "instr/cycle");
  put(m, "vgpu.model.idle_frac",
      ratio(u(sum1.sm_idle_cycles), u(sum1.sm_idle_cycles + sum1.sm_issue_cycles)),
      "ratio");
  put(m, "vgpu.model.occupancy", timed1 > 0 ? occupancy / timed1 : 0.0, "ratio");

  // tune: the tune-cold search (zero elsewhere - no pass calls the tuner).
  double pruned = 0.0, refined = 0.0, ms_per_priced = 0.0;
  if (tc != nullptr) {
    const tune::TuneReport& r = tc->report();
    pruned = r.pruned_fraction;
    for (const tune::ConfigResult& c : r.ranked) {
      if (c.status == tune::ConfigStatus::kRefined) refined += 1.0;
    }
    ms_per_priced = span_ms(rec, "tune.tune") / std::max<double>(1.0, u(r.ranked.size()));
  }
  put(m, "tune.pruned_fraction", pruned, "ratio");
  put(m, "tune.configs_refined", refined, "count");
  put(m, "tune.ms_per_priced_config", ms_per_priced, "ms");

  // telemetry: a CounterSeries sink on the probe kernel's 1-thread timed
  // launch, alternating with plain launches; and to_json(LaunchStats).
  {
    const Kernel& k = w.probe_kernel();
    vgpu::Device& dev = w.device();
    std::vector<double> plain, sunk;
    vgpu::LaunchStats plain_stats, sunk_stats;
    for (int rep = 0; rep < 3; ++rep) {
      vgpu::TimingOptions to;
      plain.push_back(run.rec.measure("vgpu.run_timed", [&] {
        plain_stats = vgpu::run_timed(k.prog, dev.spec(), dev.gmem(), k.cfg, k.params, to);
      }).wall_s);
      telemetry::CounterSeries series(2048);
      to.sink = &series;
      sunk.push_back(run.rec.measure("vgpu.run_timed+telemetry.CounterSeries", [&] {
        sunk_stats = vgpu::run_timed(k.prog, dev.spec(), dev.gmem(), k.cfg, k.params, to);
      }).wall_s);
      run.check(sunk_stats.core() == plain_stats.core(),
                k.label + ": a CounterSeries sink changed LaunchStats::core()");
    }
    put(m, "telemetry.sink_overhead_ratio", ratio(median(sunk), median(plain)), "x");
    constexpr int kReps = 2000;
    std::size_t bytes = 0;
    const double s = run.rec.measure("telemetry.to_json", [&] {
      for (int i = 0; i < kReps; ++i) bytes += telemetry::to_json(plain_stats).dump().size();
    }).wall_s;
    run.check(bytes > 0, "telemetry::to_json produced nothing");
    put(m, "telemetry.to_json_us", 1e6 * s / kReps, "us");
  }

  put(m, "trace_overhead_ratio",
      ratio(best_pass(run.traced).wall_s, best_pass(run.passes).wall_s), "x");
  run.info["traced_passes"] = static_cast<std::uint64_t>(run.traced.size());
  run.info["untraced_passes"] = static_cast<std::uint64_t>(run.passes.size());
  return m;
}

// ---- driver ----------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "read-layouts|tune-cold --seed N --seconds S "
               "--trace 0|1 --pins FILE [--spans-out FILE] | --write-pins\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    auto number = [&](double lo, double hi) {
      const std::string v = value();
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(d >= lo && d <= hi)) {
        usage(("bad value for " + a + ": " + v).c_str());
      }
      return d;
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint32_t>(number(0, 4294967295.0));
    } else if (a == "--seconds") {
      o.seconds = number(0.1, 600);
    } else if (a == "--trace") {
      o.trace = number(0, 1) != 0.0;
    } else if (a == "--pins") {
      o.pins_path = value();
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else if (a == "--write-pins") {
      o.write_pins = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!o.write_pins && o.pins_path.empty()) usage("--pins is required");
  return o;
}

int run_main(const Options& opt) {
  Run run(opt);
  std::unique_ptr<Workload> w;
  TuneCold* tc = nullptr;
  if (opt.workload == "read-layouts") {
    w = std::make_unique<ReadLayouts>();
  } else if (opt.workload == "tune-cold") {
    auto t = std::make_unique<TuneCold>();
    tc = t.get();
    w = std::move(t);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  if (!opt.write_pins) run.load_pins(opt.pins_path);

  run.rec.set_tracing(opt.trace);
  run.rec.set_pass(-1);
  auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      const Timing t = run.rec.measure("setup", [&] { w->setup(run); });
      run.setup_s.push_back(t.wall_s);
    }
  };
  set_up(opt.write_pins ? 1 : kSetupReps);

  // One unmeasured warm-up pass: lazy per-launch state fills, and with
  // --write-pins it is the only pass (run on the reference interpreter).
  {
    PassRecord warm;
    run.rec.set_tracing(false);
    run.guarded("warm-up pass", [&] { w->pass(run, warm); });
    run.guarded("verify", [&] { w->verify(run); });
  }
  if (!opt.write_pins) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    int pass_id = 0;
    // Past the deadline, go on only until there is a pass of each kind to
    // report - unless passes are throwing.
    while (Clock::now() < deadline ||
           (run.failed == 0 &&
            (run.passes.empty() || (opt.trace && run.traced.empty())))) {
      // --trace 1 alternates traced and untraced passes.
      const bool traced = opt.trace && pass_id % 2 == 0;
      run.rec.set_tracing(traced);
      run.rec.set_pass(pass_id);
      PassRecord p;
      const bool ok = run.guarded("pass", [&] {
        p.t = run.rec.measure("pass", [&] { w->pass(run, p); });
      });
      run.rec.set_pass(-1);
      run.guarded("verify", [&] { w->verify(run); });
      if (ok) (traced ? run.traced : run.passes).push_back(std::move(p));
      ++pass_id;
      // Set up again (untraced), so that setup_s samples the host over the
      // whole run rather than its first moment.
      run.rec.set_tracing(false);
      set_up(kSetupReps);
    }
  }
  run.rec.set_tracing(opt.trace);

  JsonValue out = JsonValue::object();
  if (opt.write_pins) {
    out["pins"] = std::move(run.written_pins);
  } else {
    JsonValue metrics = opt.trace ? per_layer(run, *w, tc) : end_to_end(run);
    out["correct"] = run.failed == 0;
    out["attempted"] = run.attempted;
    out["failed"] = run.failed;
    out["metrics"] = std::move(metrics);
  }
  run.info["workload"] = opt.workload;
  run.info["seed"] = opt.seed;
  run.info["threads_n"] = run.threads_n();
  run.info["farfield_n"] = kFarfieldN;
  run.info["read_n"] = kReadN;
  run.info["setup_reps"] = static_cast<std::uint64_t>(run.setup_s.size());
  run.info["build_type"] = PERFBENCH_BUILD_TYPE;
  run.info["compiler"] = PERFBENCH_COMPILER;
  JsonValue failures = JsonValue::array();
  for (const std::string& f : run.failures) failures.push_back(f);
  run.info["failures"] = std::move(failures);
  out["info"] = std::move(run.info);

  if (!opt.spans_out.empty()) {
    std::ofstream spans(opt.spans_out);
    spans << run.rec.to_json().dump() << '\n';
    if (!spans) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_out.c_str());
      return 1;
    }
  }
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to score a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE[0] != '\0' ? PERFBENCH_BUILD_TYPE : "default");
    return 2;
  }
  try {
    return run_main(opt);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
