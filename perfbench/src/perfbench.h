/**
 * @file
 * Shared types of the repository benchmark (`fld_perfbench`).
 *
 * A workload iteration builds one scenario through the library's
 * public entry points, runs it to quiescence and folds what it saw
 * into an Outcome: host timings, the deterministic simulated-time
 * results (`sim_*`), exact work counts, per-layer stats, and the
 * shapes the per-module probes are built from.
 */
#ifndef FLD_PERFBENCH_PERFBENCH_H
#define FLD_PERFBENCH_PERFBENCH_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/packet.h"
#include "nic/flow_table.h"
#include "sim/trace.h"

namespace perfbench {

/** Steady-clock seconds since an arbitrary epoch. */
double now_s();

/** Host spans around the benchmark's own calls, kept in memory and
 *  printed when the run ends. */
struct HostSpan
{
    std::string name;
    std::string workload;
    double start = 0, end = 0;
    int parent = -1;
};

class HostSpans
{
  public:
    explicit HostSpans(double epoch) : epoch_(epoch) {}

    int begin(const std::string& name, const std::string& workload)
    {
        spans_.push_back({name, workload, now_s() - epoch_, 0,
                          open_.empty() ? -1 : open_.back()});
        open_.push_back(int(spans_.size()) - 1);
        return open_.back();
    }
    void end(int id)
    {
        spans_[size_t(id)].end = now_s() - epoch_;
        open_.erase(std::find(open_.begin(), open_.end(), id));
    }
    const std::vector<HostSpan>& spans() const { return spans_; }

  private:
    double epoch_;
    std::vector<HostSpan> spans_;
    std::vector<int> open_;
};

/** RAII span scope. */
class Scope
{
  public:
    Scope(HostSpans& s, const std::string& name, const std::string& wl)
        : s_(s), id_(s.begin(name, wl))
    {}
    ~Scope() { s_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    HostSpans& s_;
    int id_;
};

struct Metric
{
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Samples of the simulated-time layer spans, in microseconds. */
struct SpanSamples
{
    static constexpr const char* kNames[] = {
        "doorbell_to_fetch", "fetch_to_wire", "wire", "wire_to_payload",
        "payload_to_cqe"};
    static constexpr size_t kLayers = 5;
    std::vector<double> layer_us[kLayers];
    /** First leg's doorbell to second leg's receive CQE, for each
     *  correlation id that completed two legs (an echoed frame). */
    std::vector<double> round_trip_us;
    uint64_t legs = 0;           ///< complete doorbell-to-CQE chains
    uint64_t negative_spans = 0; ///< causality violations
};

/** Fold one recorded trace into per-leg layer spans (appends). */
void fold_spans(const std::vector<fld::sim::TraceEvent>& events,
                SpanSamples& out);

/** Inputs the per-module probes are built from. */
struct ProbeShape
{
    std::vector<fld::net::Packet> frames; ///< workload-shaped frames
    std::vector<uint32_t> payload_sizes;  ///< app payload bytes
    fld::nic::FlowTables rules;           ///< the scenario's steering
    size_t pending_events = 0;  ///< event-queue pending-set size
    size_t cuckoo_capacity = 0; ///< FLD translation-table capacity
    size_t cuckoo_live = 0;     ///< entries live under the workload
    /** False where a shape field is a stated assumption rather than
     *  read from the running scenario (rpc10k hides its testbed). */
    bool measured = true;
};

/** One iteration of a workload. */
struct Outcome
{
    double wall_s = 0; ///< traffic phase, host seconds
    /** Host seconds of each fixed unit of work the traffic phase is
     *  cut into: simulated-time slices, or rpc10k's two serving
     *  modes. The cuts are set by the benchmark, not by the program,
     *  so slice k is the same work in every iteration of one seed. */
    std::vector<double> slice_s;
    /** Host seconds of the window a traced iteration traces (the
     *  whole traffic phase where the workload cannot be split). */
    double trace_window_s = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< correctness-gate failures
    Metrics sim;                     ///< simulated-time results
    /** Exact counts that must repeat bit-for-bit for one seed. The
     *  `alloc.` ones are compared between untraced runs only: the
     *  tracer's own recording allocates. */
    std::map<std::string, uint64_t> counts;
    Metrics layers;   ///< per-layer stats (derived from counts)
    Metrics extra_e2e;///< workload-specific end-to-end figures
    ProbeShape shape;
    SpanSamples spans; ///< filled by traced iterations only
};

struct WorkloadSpec
{
    const char* name;
    /** One iteration; @p traced installs a sim::Tracer over it. */
    Outcome (*run)(uint64_t seed, bool traced);
    /** One timed scenario build, host seconds. */
    double (*setup_once)(uint64_t seed);
    /** Nominal host seconds of one iteration. A run of S seconds
     *  measures round(S / nominal_iter_s) iterations (at least 3)
     *  whatever the program's speed, so every build's wall_s is the
     *  minimum over the same number of samples. */
    double nominal_iter_s;
};

const std::vector<WorkloadSpec>& workloads();

/** Per-module probes over @p shape; fills `*.probe.*` metrics and
 *  records one host span per probe. */
Metrics run_probes(const ProbeShape& shape, uint64_t seed, HostSpans& hs,
                   const std::string& workload);

/** Fixed reference kernel: ns per event of a constant schedule/run
 *  loop, independent of workload and seed (machine drift marker). */
double reference_kernel_ns();

/** operator-new calls and bytes since process start. */
uint64_t alloc_calls();
uint64_t alloc_bytes();

} // namespace perfbench

#endif // FLD_PERFBENCH_PERFBENCH_H
