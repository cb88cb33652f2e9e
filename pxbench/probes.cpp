// pxbench/probes.cpp — per-layer probes for the traced run.
//
// Each probe calls one layer's public functions at the shapes the workload
// uses and is timed from outside the library; spans go to the span_log.
// Shapes per workload family:
//   heat      kernel: run_heat1d, one 16384-point partition, 4 parts/step;
//             halo payload: the (partition, attempt, step, side, value)
//             tuple of the heat halo action
//   jacobi    kernel: run_jacobi2d, one 2048 x 256 f64 block;
//             halo payload: the (step, side, 2048-double row) tuple
//   shm       kernel: the VNS sweep below; it sends no parcels, so the
//             transport probes run on the plain EDR domain with the heat
//             payload and only describe the layers, not this workload
// The shared-memory probes (alloc/init, encode, sweep, decode at 8192^2
// f32) and the STREAM copy run for every workload, so every traced run
// reports every per-layer metric.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "bench.hpp"
#include "px/arch/stream_bench.hpp"
#include "px/dist/distributed_domain.hpp"
#include "px/lcos/async.hpp"
#include "px/runtime/timer_service.hpp"
#include "px/runtime/trace.hpp"
#include "px/serial/archive.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/jacobi2d_vns.hpp"
#include "px/support/random.hpp"

namespace {

// The no-op action of the parcel round-trip probe.
int pxbench_noop(int x) { return x; }

}  // namespace

PX_REGISTER_ACTION(pxbench_noop)

namespace pxbench {

void span_log::close(char const* name, std::uint64_t begin_us) {
  std::uint64_t const end = px::trace::now_us();
  spans_.push_back({name, begin_us, end > begin_us ? end - begin_us : 0});
}

void span_log::flush_to_trace() const {
  for (auto const& s : spans_)
    px::trace::record_slice(s.name, 0, s.begin_us, s.duration_us,
                            px::trace::external_lane);
}

namespace {

enum class family { heat, jacobi, shm };

family family_of(workload const& w) {
  if (w.name().rfind("heat1d", 0) == 0) return family::heat;
  return w.name() == "jacobi2d_dist" ? family::jacobi : family::shm;
}

// Median per-call nanoseconds of `op` over `batches` batches of `reps`.
template <typename Op>
double ns_per_call(Op&& op, std::size_t reps, std::size_t batches = 7) {
  std::vector<double> per;
  for (std::size_t b = 0; b < batches; ++b) {
    std::uint64_t const t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) op(i);
    per.push_back(static_cast<double>(now_ns() - t0) /
                  static_cast<double>(reps));
  }
  return median(per);
}

// ---- kernel ---------------------------------------------------------------

double kernel_us_per_step(family f, std::uint64_t seed) {
  px::scheduler_config sc;
  sc.num_workers = 1;
  px::runtime rt(sc);
  std::vector<double> per_step;
  if (f == family::heat) {
    auto const initial = heat_initial(16384, seed);
    px::stencil::heat1d_config cfg;
    cfg.steps = 2000;
    cfg.partitions = 4;  // the distributed solver's parts on 1 worker
    for (int rep = 0; rep < 5; ++rep) {
      auto r = px::sync_wait(rt, [&] {
        return px::stencil::run_heat1d(px::execution::par, initial, cfg);
      });
      per_step.push_back(r.seconds / static_cast<double>(cfg.steps) * 1e6);
    }
  } else {
    std::size_t const nx = 2048, ny = 256, steps = 100;
    auto const interior = jacobi_initial(nx, ny, seed);
    px::sync_wait(rt, [&] {
      px::stencil::field2d<double> u0(nx, ny), u1(nx, ny);
      px::stencil::init_dirichlet_problem(u0);
      px::stencil::init_dirichlet_problem(u1);
      for (std::size_t y = 0; y < ny; ++y)
        for (std::size_t x = 0; x < nx; ++x)
          u0.set(x, y, interior[y * nx + x]);
      for (int rep = 0; rep < 5; ++rep) {
        auto r = px::stencil::run_jacobi2d(px::execution::par, u0, u1, steps);
        per_step.push_back(r.seconds / static_cast<double>(steps) * 1e6);
      }
    });
  }
  return median(per_step);
}

// ---- shared-memory Jacobi stages -----------------------------------------

struct shm_stages {
  static constexpr std::size_t n = 8192;
  static constexpr std::size_t steps = 50;
  double alloc_init_s = 0, encode_s = 0, sweep_s = 0, decode_s = 0;
};

// The stages run_jacobi2d_vns strings together, timed one by one on the
// shared-memory workload's shape: field2d construction + initialisation
// (scalar field and both pack fields), copy_problem into both pack fields,
// run_jacobi2d, interior_snapshot.
shm_stages probe_shm(px::runtime& rt, std::uint64_t seed, span_log& spans) {
  shm_stages st;
  std::size_t const n = shm_stages::n;
  px::sync_wait(rt, [&] {
    px::stencil::with_vns_pack<float>(px::stencil::vns_abi::native,
                                      [&](auto tag) {
      using P = typename decltype(tag)::type;
      std::uint64_t t = px::trace::now_us();
      std::uint64_t t0 = now_ns();
      px::stencil::field2d<float> init(n, n);
      px::stencil::init_dirichlet_problem(init);
      px::xoshiro256ss rng(seed);
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          init.set(x, y, static_cast<float>(1e-3 * rng.uniform()));
      px::stencil::field2d<P> u0(n, n), u1(n, n);
      st.alloc_init_s = seconds_since(t0);
      spans.close("stencil.alloc_init", t);

      t = px::trace::now_us();
      t0 = now_ns();
      px::stencil::copy_problem(u0, init);
      px::stencil::copy_problem(u1, init);
      st.encode_s = seconds_since(t0);
      spans.close("simd.encode", t);

      // Best of three, like the STREAM copy it is compared with. An even
      // step count leaves the newest state in u0 after every repetition.
      static_assert(shm_stages::steps % 2 == 0);
      st.sweep_s = HUGE_VAL;
      for (int rep = 0; rep < 3; ++rep) {
        t = px::trace::now_us();
        t0 = now_ns();
        (void)px::stencil::run_jacobi2d(px::execution::par, u0, u1,
                                        st.steps);
        st.sweep_s = std::min(st.sweep_s, seconds_since(t0));
        spans.close("stencil.sweep", t);
      }

      t = px::trace::now_us();
      t0 = now_ns();
      auto const out = px::stencil::interior_snapshot(u0);
      st.decode_s = seconds_since(t0);
      spans.close("simd.decode", t);
      if (out.size() != n * n) throw std::runtime_error("decode size");
    });
  });
  return st;
}

// ---- STREAM copy ------------------------------------------------------------

struct stream_probe {
  double copy_gbs = 0;
  double array_mib = 0;
  double llc_mib = 0;
};

double llc_bytes() {
  long b = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (b <= 0) b = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return b > 0 ? static_cast<double>(b) : 32.0 * 1024 * 1024;
}

// px::arch::run_stream with every array at least 4x the last-level cache
// (McCalpin's rule), unless three such arrays would exceed a quarter of
// physical memory; the report prints both sizes.
stream_probe probe_stream(px::runtime& rt) {
  stream_probe sp;
  double const llc = llc_bytes();
  double const phys = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                      static_cast<double>(sysconf(_SC_PAGESIZE));
  double const bytes = std::min(4.0 * llc, phys / 12.0);
  px::arch::stream_config cfg;
  cfg.array_elements = static_cast<std::size_t>(bytes / sizeof(double));
  cfg.repetitions = 5;
  auto const results = px::arch::run_stream(rt, cfg);
  if (!results.at(0).verified)
    throw std::runtime_error("STREAM arrays failed verification");
  sp.copy_gbs = results.at(0).best_gbs;
  sp.array_mib = static_cast<double>(cfg.array_elements) * sizeof(double) /
                 (1024.0 * 1024.0);
  sp.llc_mib = llc / (1024.0 * 1024.0);
  return sp;
}

// ---- timer, parcel, serial, AGAS ------------------------------------------

std::size_t halo_payload_bytes(family f) {
  return f == family::jacobi ? 2048 * sizeof(double) : sizeof(double);
}

// Lateness of timer_service::call_at at the fabric's injected one-way
// delay for one halo payload.
std::pair<double, double> probe_timer(px::dist::domain_config const& cfg,
                                      family f) {
  px::net::fabric fab(cfg.fabric, cfg.injection_scale);
  auto const delay =
      std::chrono::nanoseconds(fab.injected_delay_ns(halo_payload_bytes(f)));
  auto& ts = px::rt::timer_service::instance();
  std::vector<double> late_us;
  for (int i = 0; i < 2000; ++i) {
    std::atomic<std::int64_t> late_ns{-1};
    auto const deadline = px::rt::timer_service::clock::now() + delay;
    ts.call_at(deadline, [&late_ns, deadline] {
      late_ns.store((px::rt::timer_service::clock::now() - deadline).count(),
                    std::memory_order_release);
    });
    while (late_ns.load(std::memory_order_acquire) < 0)
      std::this_thread::yield();
    late_us.push_back(static_cast<double>(late_ns.load()) * 1e-3);
  }
  return {percentile(late_us, 50), percentile(late_us, 99)};
}

struct transport_probe {
  double rtt_p50_us = 0, rtt_p99_us = 0, resolve_ns = 0;
};

// A no-op action between two localities configured like the workload, and
// one AGAS name lookup of the heat state's name shape.
transport_probe probe_transport(px::dist::domain_config cfg) {
  transport_probe tp;
  cfg.num_localities = 2;
  px::dist::distributed_domain dom(cfg);
  auto const rtt_us = dom.run([](px::dist::locality& here) {
    std::vector<double> us;
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t const t0 = now_ns();
      if (here.call<&pxbench_noop>(1, i).get() != i)
        throw std::runtime_error("no-op action returned a wrong value");
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    return us;
  });
  tp.rtt_p50_us = percentile(rtt_us, 50);
  tp.rtt_p99_us = percentile(rtt_us, 99);

  auto& agas = dom.at(0).agas();
  std::string const name = "px.stencil.heat1d.state.1.1";
  auto const g = agas.bind(std::make_shared<int>(0));
  agas.register_name(name, g);
  std::uint64_t hits = 0;
  tp.resolve_ns = ns_per_call(
      [&](std::size_t) { hits += agas.resolve_name(name) == g ? 1 : 0; },
      200000);
  agas.unregister_name(name);
  agas.unbind(g);
  if (hits == 0) throw std::runtime_error("AGAS name did not resolve");
  dom.wait_all_quiescent();
  return tp;
}

// to_bytes + from_bytes of one halo parcel's argument tuple.
double probe_serial(family f) {
  std::uint64_t sink = 0;
  double ns = 0;
  if (f == family::jacobi) {
    using payload = std::tuple<std::uint32_t, std::uint8_t, std::vector<double>>;
    payload const p{7, 1, std::vector<double>(2048, 0.5)};
    ns = ns_per_call(
        [&](std::size_t) {
          auto const bytes = px::serial::to_bytes(p);
          sink += std::get<2>(px::serial::from_bytes<payload>(bytes)).size();
        },
        2000);
  } else {
    using payload = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                               std::uint8_t, double>;
    payload const p{1, 1, 12345, 0, 0.5};
    ns = ns_per_call(
        [&](std::size_t) {
          auto const bytes = px::serial::to_bytes(p);
          sink += std::get<2>(px::serial::from_bytes<payload>(bytes));
        },
        200000);
  }
  if (sink == 0) throw std::runtime_error("serial round trip lost data");
  return ns;
}

}  // namespace

metric_map probe_layers(workload const& w, span_log& spans,
                        std::string& notes) {
  family const f = family_of(w);
  metric_map m;

  std::uint64_t t = px::trace::now_us();
  auto const lat = probe_timer(w.transport(), f);
  spans.close("runtime.timer_probe", t);
  m["runtime.timer_late_us_p50"] = lat.first;
  m["runtime.timer_late_us_p99"] = lat.second;

  t = px::trace::now_us();
  auto const tp = probe_transport(w.transport());
  spans.close("parcel.roundtrip_probe", t);
  m["parcel.roundtrip_us_p50"] = tp.rtt_p50_us;
  m["parcel.roundtrip_us_p99"] = tp.rtt_p99_us;
  m["agas.resolve_name_ns"] = tp.resolve_ns;

  t = px::trace::now_us();
  m["serial.halo_roundtrip_ns"] = probe_serial(f);
  spans.close("serial.halo_probe", t);

  shm_stages st;
  stream_probe sp;
  {
    px::scheduler_config sc;
    sc.num_workers = host_workers();
    px::runtime rt(sc);
    st = probe_shm(rt, 0x5eed, spans);
    t = px::trace::now_us();
    sp = probe_stream(rt);
    spans.close("arch.stream_copy", t);
  }
  double const updates =
      static_cast<double>(st.n * st.n) * static_cast<double>(st.steps);
  double const bytes_per_update = 2.0 * sizeof(float);
  m["stencil.alloc_init_s"] = st.alloc_init_s;
  m["simd.encode_s"] = st.encode_s;
  m["simd.decode_s"] = st.decode_s;
  m["stencil.sweep_s"] = st.sweep_s;
  m["stencil.sweep_glups"] = updates / st.sweep_s / 1e9;
  m["arch.stream_copy_gbs"] = sp.copy_gbs;
  m["stencil.roofline_frac_dram"] =
      m["stencil.sweep_glups"] * bytes_per_update / sp.copy_gbs;

  if (f == family::shm) {
    m["stencil.kernel_us_per_step"] =
        st.sweep_s / static_cast<double>(st.steps) * 1e6;
  } else {
    t = px::trace::now_us();
    m["stencil.kernel_us_per_step"] = kernel_us_per_step(f, 0x5eed);
    spans.close("stencil.kernel_probe", t);
  }

  notes = "STREAM: 3 arrays of " + std::to_string(sp.array_mib) +
          " MiB each against an LLC of " + std::to_string(sp.llc_mib) +
          " MiB; roofline uses " + std::to_string(bytes_per_update) +
          " B/update (one f32 read + one f32 write, neighbours from cache, "
          "write-allocate not counted, as STREAM copy counts).";
  if (4.0 * sp.llc_mib > sp.array_mib + 0.5)
    notes += " Arrays capped below 4x LLC by physical memory.";
  if (f == family::shm)
    notes += " Transport probes use the plain EDR domain: this workload "
             "sends no parcels.";
  return m;
}

}  // namespace pxbench
