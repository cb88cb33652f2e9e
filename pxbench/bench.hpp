// pxbench/bench.hpp
// Shared declarations of the whole-solve benchmark: statistics, output
// checks, per-solve counter extraction, the workload interface and the
// per-layer probes. main.cpp owns the timing loops; nothing
// here times a whole solve by itself.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "px/counters/counters.hpp"
#include "px/dist/distributed_domain.hpp"

namespace pxbench {

// ---- statistics ----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double seconds_since(std::uint64_t t0_ns);
[[nodiscard]] std::uint64_t now_ns();
// Worker threads of the shared-memory runtimes: nproc.
[[nodiscard]] std::size_t host_workers();

// ---- output checks --------------------------------------------------------

struct check_result {
  bool ok = false;
  double max_abs_err = 0.0;  // over all elements; +inf on a size mismatch
  std::string why;           // empty when ok
};

// Every element must equal the reference bit for bit.
[[nodiscard]] check_result check_bitwise(std::vector<double> const& got,
                                         std::vector<double> const& ref);
// Every element must be finite and within `tol` of the reference.
[[nodiscard]] check_result check_within(std::vector<double> const& got,
                                        std::vector<double> const& ref,
                                        double tol);
[[nodiscard]] check_result check_within(std::vector<float> const& got,
                                        std::vector<float> const& ref,
                                        double tol);

// ---- per-solve counts -----------------------------------------------------

// Registry deltas over one solve, summed over instances (every worker of
// every locality): parcels_sent, parcels_delivered, frames, net_messages,
// bytes, modeled_ns, acks, drops, retransmits, dup_suppressed,
// delivery_failures, tasks, steals, parks, busy_ns.
using count_map = std::map<std::string, std::uint64_t>;
[[nodiscard]] count_map solve_counts(px::counters::snapshot const& delta);

// Names in `pinned` whose value is not identical in every solve.
[[nodiscard]] std::vector<std::string> unstable_counts(
    std::vector<count_map> const& per_solve,
    std::vector<std::string> const& pinned);

// ---- workloads -------------------------------------------------------------

struct solve_outcome {
  double solve_s = 0.0;
  check_result check;
  std::string error;  // what() of an exception thrown by the solve
  [[nodiscard]] bool ok() const noexcept { return error.empty() && check.ok; }
};

class workload {
 public:
  virtual ~workload() = default;

  [[nodiscard]] virtual std::string const& name() const = 0;
  [[nodiscard]] virtual std::size_t steps() const = 0;
  // Lattice sites updated per step.
  [[nodiscard]] virtual double cells() const = 0;
  [[nodiscard]] virtual std::size_t localities() const = 0;
  [[nodiscard]] virtual std::size_t workers_per_locality() const = 0;
  // Per-solve counts asserted identical across the timed solves of a run.
  [[nodiscard]] virtual std::vector<std::string> pinned_counts() const = 0;
  // Output tolerance, as printed in the report ("bitwise" or a bound).
  [[nodiscard]] virtual std::string tolerance() const = 0;
  // Domain configuration of a distributed workload (the plain EDR domain
  // for the shared-memory one); the transport probes use it.
  [[nodiscard]] virtual px::dist::domain_config transport() const = 0;

  // Constructs the runtime or distributed_domain and generates the seeded
  // initial condition. main.cpp times this as setup_s.
  virtual void setup() = 0;
  // Computes the reference output from the current initial condition.
  // Called once, after the first setup, outside every timed region.
  virtual void make_reference() = 0;
  // One whole solve, timed from handing over the initial field to holding
  // the gathered or decoded result, then checked against the reference
  // (outside the timed region). Never throws: failures land in the outcome.
  virtual solve_outcome solve() = 0;
  // Destroys what setup() built.
  virtual void teardown() = 0;
};

// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<workload> make_workload(std::string const& name,
                                                      std::uint64_t seed);

// Seeded initial conditions, shared with the self-test.
[[nodiscard]] std::vector<double> heat_initial(std::size_t nx,
                                               std::uint64_t seed);
[[nodiscard]] std::vector<double> jacobi_initial(std::size_t nx,
                                                 std::size_t ny,
                                                 std::uint64_t seed);

// ---- references (reference.cpp, built without -ffast-math) ---------------

// The f32 scalar (auto-vectorised) Jacobi solve of the shared-memory
// workload's problem, on `workers` threads: unit Dirichlet boundaries and
// the given interior.
[[nodiscard]] std::vector<float> reference_jacobi_f32(
    std::vector<float> const& interior, std::size_t nx, std::size_t ny,
    std::size_t steps, std::size_t workers);

// ---- per-layer probes (probes.cpp) ----------------------------------------

using metric_map = std::map<std::string, double>;

// A benchmark-side span, kept in memory until the run ends and then
// replayed into the px Chrome trace next to the runtime's task slices.
struct span {
  char const* name;  // string literal
  std::uint64_t begin_us;
  std::uint64_t duration_us;
};

class span_log {
 public:
  // Records [begin_us, now) under `name`.
  void close(char const* name, std::uint64_t begin_us);
  // Replays every span through px::trace::record_slice (tracing enabled).
  void flush_to_trace() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::vector<span> spans_;
};

// Probes each layer's public functions at the workload's shapes and returns
// the per-layer metrics that do not come from whole solves.
[[nodiscard]] metric_map probe_layers(workload const& w, span_log& spans,
                                      std::string& notes);

}  // namespace pxbench
