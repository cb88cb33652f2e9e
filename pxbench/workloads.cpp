// pxbench/workloads.cpp — the four whole-solve workloads.
//
//   heat1d_dist        run_distributed_heat1d, 3 localities x 1 worker, EDR,
//                      49152 points, 20000 steps; bitwise vs reference_heat1d
//   heat1d_dist_lossy  the same with the reliability layer on and 0.1% of
//                      frames dropped (the seq/ack/RTO/dedup path)
//   jacobi2d_dist      run_distributed_jacobi2d (scalar kernel), 3 x 1, EDR,
//                      2048 x 768, 1000 steps; vs reference_jacobi2d_interior
//   jacobi2d_shm       field2d + run_jacobi2d_vns, f32 native pack, 8192^2,
//                      50 steps, nproc workers; vs the scalar f32 solve
//
// The seed perturbs the initial field (amplitude 1e-3) and, on the lossy
// workload, seeds the fault plane.
#include <exception>

#include "bench.hpp"
#include "px/dist/distributed_domain.hpp"
#include "px/lcos/async.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/jacobi2d_distributed.hpp"
#include "px/stencil/jacobi2d_vns.hpp"
#include "px/stencil/reference.hpp"
#include "px/support/random.hpp"

namespace pxbench {
namespace {

constexpr double perturbation = 1e-3;
constexpr std::size_t dist_localities = 3;

// Distinct streams per use of the seed.
constexpr std::uint64_t field_stream = 0x6669656c64ull;
constexpr std::uint64_t fault_stream = 0x6661756c74ull;

px::dist::domain_config edr_domain() {
  px::dist::domain_config cfg;
  cfg.num_localities = dist_localities;
  cfg.locality_cfg.num_workers = 1;
  cfg.fabric = px::net::infiniband_edr();
  cfg.injection_scale = 1.0;
  return cfg;
}

// Runs `solve` (returning the gathered or decoded result) under a wall
// clock, then checks the result outside the timed region.
template <typename Solve, typename Check>
solve_outcome timed(Solve&& solve, Check&& check) {
  solve_outcome out;
  try {
    std::uint64_t const t0 = now_ns();
    auto result = solve();
    out.solve_s = seconds_since(t0);
    out.check = check(result);
  } catch (std::exception const& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  return out;
}

class heat_dist final : public workload {
 public:
  heat_dist(std::string name, std::uint64_t seed, bool lossy)
      : name_(std::move(name)), seed_(seed), cfg_(edr_domain()) {
    solver_.nx_total = 49152;
    solver_.steps = 20000;
    solver_.k = 0.25;
    if (lossy) {
      cfg_.reliability.activation = px::net::reliability_config::mode::on;
      cfg_.faults.drop = 0.001;
      cfg_.faults.seed = px::xoshiro256ss(seed ^ fault_stream)();
    }
  }

  std::string const& name() const override { return name_; }
  std::size_t steps() const override { return solver_.steps; }
  double cells() const override {
    return static_cast<double>(solver_.nx_total);
  }
  std::size_t localities() const override { return dist_localities; }
  std::size_t workers_per_locality() const override { return 1; }
  // Under loss only the logical parcels repeat exactly. Frames and bytes
  // include acks, retransmits and duplicates, which depend on RTO timing.
  // Drops do not repeat either: data frames, acks and retransmits on one
  // link race for positions in the link's fault stream (fault_plane.hpp).
  std::vector<std::string> pinned_counts() const override {
    if (cfg_.faults.enabled()) return {"parcels_sent", "parcels_delivered"};
    return {"parcels_sent", "frames", "bytes"};
  }
  std::string tolerance() const override { return "bitwise"; }
  px::dist::domain_config transport() const override { return cfg_; }

  void setup() override {
    initial_ = heat_initial(solver_.nx_total, seed_);
    dom_ = std::make_unique<px::dist::distributed_domain>(cfg_);
  }
  void make_reference() override {
    ref_ = px::stencil::reference_heat1d(initial_, solver_.steps, solver_.k);
  }
  solve_outcome solve() override {
    return timed(
        [&] {
          return px::stencil::run_distributed_heat1d(*dom_, initial_, solver_)
              .values;
        },
        [&](std::vector<double> const& v) { return check_bitwise(v, ref_); });
  }
  void teardown() override { dom_.reset(); }

 private:
  std::string name_;
  std::uint64_t seed_;
  px::dist::domain_config cfg_;
  px::stencil::dist_heat_config solver_;
  std::vector<double> initial_, ref_;
  std::unique_ptr<px::dist::distributed_domain> dom_;
};

class jacobi_dist final : public workload {
 public:
  // The block kernel and the serial reference sum the four neighbours in
  // different orders, so the results differ in the last bits.
  static constexpr double tol = 1e-12;

  explicit jacobi_dist(std::uint64_t seed)
      : seed_(seed), cfg_(edr_domain()) {
    solver_.nx = 2048;
    solver_.ny_total = 768;
    solver_.steps = 1000;
    solver_.boundary = 1.0;
    solver_.use_simd = false;
  }

  std::string const& name() const override { return name_; }
  std::size_t steps() const override { return solver_.steps; }
  double cells() const override {
    return static_cast<double>(solver_.nx * solver_.ny_total);
  }
  std::size_t localities() const override { return dist_localities; }
  std::size_t workers_per_locality() const override { return 1; }
  std::vector<std::string> pinned_counts() const override {
    return {"parcels_sent", "frames", "bytes"};
  }
  std::string tolerance() const override { return "1e-12 absolute"; }
  px::dist::domain_config transport() const override { return cfg_; }

  void setup() override {
    initial_ = jacobi_initial(solver_.nx, solver_.ny_total, seed_);
    dom_ = std::make_unique<px::dist::distributed_domain>(cfg_);
  }
  void make_reference() override {
    ref_ = px::stencil::reference_jacobi2d_interior(
        initial_, solver_.nx, solver_.ny_total, solver_.steps,
        solver_.boundary);
  }
  solve_outcome solve() override {
    return timed(
        [&] {
          return px::stencil::run_distributed_jacobi2d(*dom_, initial_,
                                                       solver_)
              .values;
        },
        [&](std::vector<double> const& v) {
          return check_within(v, ref_, tol);
        });
  }
  void teardown() override { dom_.reset(); }

 private:
  std::string const name_ = "jacobi2d_dist";
  std::uint64_t seed_;
  px::dist::domain_config cfg_;
  px::stencil::dist_jacobi_config solver_;
  std::vector<double> initial_, ref_;
  std::unique_ptr<px::dist::distributed_domain> dom_;
};

class jacobi_shm final : public workload {
 public:
  static constexpr std::size_t n = 8192;
  static constexpr std::size_t sweeps = 50;
  // -ffast-math lets the compiler contract and reorder the 5-point sum of
  // the pack kernel; the measured difference from the IEEE scalar solve is
  // about 2e-7 (1-2 f32 ulps at 1.0). The bound leaves room for other
  // compilers and ABIs while still catching a misplaced lane or halo,
  // which moves values by the 1e-3 perturbation or more.
  static constexpr double tol = 1e-5;

  explicit jacobi_shm(std::uint64_t seed) : seed_(seed) {}

  std::string const& name() const override { return name_; }
  std::size_t steps() const override { return sweeps; }
  double cells() const override { return static_cast<double>(n * n); }
  std::size_t localities() const override { return 1; }
  std::size_t workers_per_locality() const override { return host_workers(); }
  std::vector<std::string> pinned_counts() const override {
    return {"parcels_sent", "frames"};
  }
  std::string tolerance() const override { return "1e-5 absolute (f32)"; }
  px::dist::domain_config transport() const override { return edr_domain(); }

  void setup() override {
    interior_.resize(n * n);
    px::xoshiro256ss rng(seed_ ^ field_stream);
    for (auto& v : interior_)
      v = static_cast<float>(perturbation * rng.uniform());
    px::scheduler_config sc;
    sc.num_workers = host_workers();
    rt_ = std::make_unique<px::runtime>(sc);
  }
  void make_reference() override {
    ref_ = reference_jacobi_f32(interior_, n, n, sweeps, host_workers());
  }
  solve_outcome solve() override {
    return timed(
        [&] {
          return px::sync_wait(*rt_, [&] {
            px::stencil::field2d<float> init(n, n);
            px::stencil::init_dirichlet_problem(init);
            for (std::size_t y = 0; y < n; ++y)
              for (std::size_t x = 0; x < n; ++x)
                init.set(x, y, interior_[y * n + x]);
            return px::stencil::run_jacobi2d_vns<float>(
                       px::execution::par, px::stencil::vns_abi::native, init,
                       sweeps)
                .interior;
          });
        },
        [&](std::vector<float> const& v) { return check_within(v, ref_, tol); });
  }
  void teardown() override { rt_.reset(); }

 private:
  std::string const name_ = "jacobi2d_shm";
  std::uint64_t seed_;
  std::vector<float> interior_, ref_;
  std::unique_ptr<px::runtime> rt_;
};

}  // namespace

std::vector<double> heat_initial(std::size_t nx, std::uint64_t seed) {
  auto u = px::stencil::heat1d_sine_initial(nx);
  px::xoshiro256ss rng(seed ^ field_stream);
  // Interior only: the Dirichlet ends stay pinned at the sine's zeros.
  for (std::size_t x = 1; x + 1 < nx; ++x)
    u[x] += perturbation * (2.0 * rng.uniform() - 1.0);
  return u;
}

std::vector<double> jacobi_initial(std::size_t nx, std::size_t ny,
                                   std::uint64_t seed) {
  std::vector<double> u(nx * ny);
  px::xoshiro256ss rng(seed ^ field_stream);
  for (auto& v : u) v = perturbation * rng.uniform();
  return u;
}

std::unique_ptr<workload> make_workload(std::string const& name,
                                        std::uint64_t seed) {
  if (name == "heat1d_dist")
    return std::make_unique<heat_dist>(name, seed, false);
  if (name == "heat1d_dist_lossy")
    return std::make_unique<heat_dist>(name, seed, true);
  if (name == "jacobi2d_dist") return std::make_unique<jacobi_dist>(seed);
  if (name == "jacobi2d_shm") return std::make_unique<jacobi_shm>(seed);
  return nullptr;
}

}  // namespace pxbench
