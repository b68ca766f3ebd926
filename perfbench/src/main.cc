/**
 * @file
 * fld_perfbench: the repository benchmark.
 *
 *   fld_perfbench --workload <echo64|rpc10k|zuc512> --seed <n>
 *                 --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics: a fixed number of
 * untraced iterations, set by --seconds and the workload's nominal
 * iteration time (traffic-phase wall time as the sum of each fixed
 * work slice's fastest time), scenario builds (median set-up time),
 * peak RSS and the simulated-time results.
 * --trace 1 measures the per-layer metrics: per-op allocation counts,
 * per-module probes, the simulated-time layer spans of a traced
 * iteration, and the tracing overhead (traced over untraced time of
 * the traced window).
 *
 * Every iteration passes the workload's correctness gate, and every
 * simulated result and exact count must repeat bit-for-bit across
 * iterations of one seed and between traced and untraced iterations.
 * Any failure makes the exit status non-zero. The last line of
 * standard output is one JSON object: correct, attempted, failed and
 * metrics ({"name": {"value": v, "unit": u}}).
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench.h"

using namespace perfbench;

namespace {

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile of unsorted samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(q * double(v.size()));
    return v[std::min(rank, v.size() - 1)];
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s = s.c_str();
        size_t a = s.find_first_not_of(' ');
        return a == std::string::npos ? "unknown" : s.substr(a);
    }
#endif
    return "unknown";
}

/**
 * CPUs this process may run on. Interference on a shared host hits
 * one CPU at a time for seconds to minutes, so iterations rotate
 * over all of them: every work slice then has samples from CPUs that
 * were quiet.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
    }

    /** Move to the next CPU in turn; returns it (-1 if unknown). A
     *  refused move only loses the rotation, not the measurement. */
    int next()
    {
        if (cpus_.empty())
            return -1;
        int c = cpus_[turn_++ % cpus_.size()];
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(c, &set);
        sched_setaffinity(0, sizeof set, &set);
        return c;
    }
    size_t size() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    size_t turn_ = 0;
};

bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Differences in simulated results and exact counts between two
 *  iterations of one seed. Allocation counts are compared only when
 *  both iterations ran untraced. */
std::vector<std::string>
determinism_diff(const Outcome& ref, const Outcome& o, bool with_alloc,
                 const char* what)
{
    std::vector<std::string> out;
    for (const auto& [name, m] : ref.sim) {
        auto it = o.sim.find(name);
        if (it == o.sim.end() || !same_bits(m.value, it->second.value))
            out.push_back(std::string(what) + ": " + name + " differs");
    }
    for (const auto& [name, v] : ref.counts) {
        if (!with_alloc && name.rfind("alloc.", 0) == 0)
            continue;
        auto it = o.counts.find(name);
        if (it == o.counts.end() || it->second != v)
            out.push_back(std::string(what) + ": count " + name + " " +
                          std::to_string(v) + " vs " +
                          (it == o.counts.end()
                               ? std::string("missing")
                               : std::to_string(it->second)));
    }
    return out;
}

void
print_metrics(const char* heading, const Metrics& m)
{
    std::printf("  [%s]\n", heading);
    for (const auto& [name, metric] : m)
        std::printf("    %-40s %.10g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

// ---------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------

struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Metrics metrics; ///< the JSON metric set for this --trace mode
};

void
gate(Result& res, const Outcome& o, const std::string& wl)
{
    for (const std::string& e : o.errors)
        std::printf("  FAIL %s: %s\n", wl.c_str(), e.c_str());
    if (!o.errors.empty())
        res.correct = false;
    res.attempted += o.attempted;
    res.failed += o.failed;
}

void
check_same(Result& res, const std::vector<std::string>& diffs)
{
    for (size_t i = 0; i < diffs.size() && i < 8; ++i)
        std::printf("  FAIL determinism: %s\n", diffs[i].c_str());
    if (!diffs.empty())
        res.correct = false;
}

/** Iterations a run of @p seconds measures: fixed for a given
 *  --seconds, independent of how fast the program is. */
size_t
iterations(const WorkloadSpec& w, double seconds)
{
    return std::max<size_t>(3, size_t(std::lround(seconds /
                                                  w.nominal_iter_s)));
}

Result
measure_e2e(const WorkloadSpec& w, uint64_t seed, double seconds,
            HostSpans& hs, CpuRotation& cpus)
{
    Result res;
    // The first iteration is the determinism reference for the rest.
    // It also pays lazy set-up, which the per-slice minimum discards.
    Outcome ref;
    double rss_mb = 0;
    // Builds and traffic phases alternate, so both sample the whole
    // run's machine state. A build is short, so many are taken.
    constexpr size_t kSetupBuilds = 63;
    std::vector<double> walls, setups;
    std::vector<std::vector<double>> slices;
    const size_t runs = iterations(w, seconds);
    while (walls.size() < runs) {
        Outcome o;
        cpus.next();
        {
            Scope s(hs, "run", w.name);
            o = w.run(seed, false);
        }
        while (setups.size() * runs < (walls.size() + 1) * kSetupBuilds) {
            Scope s(hs, "setup", w.name);
            setups.push_back(w.setup_once(seed));
        }
        Scope v(hs, "verify", w.name);
        gate(res, o, w.name);
        walls.push_back(o.wall_s);
        slices.push_back(o.slice_s);
        if (walls.size() == 1) {
            // High-water mark of one iteration: later iterations only
            // add allocator fragmentation.
            rss_mb = peak_rss_mb();
            ref = std::move(o);
            continue;
        }
        check_same(res, determinism_diff(ref, o, true, "rerun"));
        if (o.slice_s.size() != ref.slice_s.size())
            check_same(res, {"rerun: work-slice count differs"});
    }

    // Interference on a shared host only ever adds time, and it comes
    // in bursts longer than one slice but shorter than the run. The
    // traffic phase's time is therefore estimated slice by slice: the
    // fastest time of each fixed unit of work over the same number of
    // iterations, summed.
    double wall = 0;
    for (size_t k = 0; k < ref.slice_s.size(); ++k) {
        double best = 1e300;
        for (const std::vector<double>& it : slices)
            if (k < it.size())
                best = std::min(best, it[k]);
        wall += best;
    }

    res.metrics["wall_s"] = {wall, "s"};
    res.metrics["setup_s"] = {median(setups), "s"};
    res.metrics["peak_rss_mb"] = {rss_mb, "MB"};
    for (const auto& [name, m] : ref.sim)
        if (name.find(".cpu") == std::string::npos)
            res.metrics[name] = m;

    std::printf("  iterations: %zu of %zu work slices; whole-iteration "
                "wall_s min %.4f median %.4f max %.4f; set-up builds: "
                "%zu\n",
                walls.size(), ref.slice_s.size(),
                *std::min_element(walls.begin(), walls.end()),
                median(walls),
                *std::max_element(walls.begin(), walls.end()),
                setups.size());
    print_metrics("end-to-end", res.metrics);
    Metrics more = ref.extra_e2e;
    for (const auto& [name, m] : ref.sim)
        if (name.find(".cpu") != std::string::npos)
            more[name] = m;
    more["failed_frac"] = {
        res.attempted ? double(res.failed) / double(res.attempted) : 0.0,
        "frac"};
    for (const char* n : {"sim_lat_samples", "sim_lat_samples.cpu"})
        if (ref.counts.count(n))
            more[n] = {double(ref.counts.at(n)), "count"};
    print_metrics("end-to-end, workload-specific", more);
    return res;
}

Result
measure_layers(const WorkloadSpec& w, uint64_t seed, double seconds,
               HostSpans& hs, CpuRotation& cpus)
{
    Result res;
    Outcome ref;
    {
        Scope s(hs, "run.untraced", w.name);
        cpus.next();
        ref = w.run(seed, false);
    }
    gate(res, ref, w.name);

    // Alternate traced and untraced iterations so machine drift hits
    // both sides of the overhead ratio alike. Pairs are counted like
    // the untraced run's iterations: fixed for a given --seconds.
    std::vector<double> traced_walls, untraced_walls;
    Outcome traced;
    const size_t pairs = std::max<size_t>(1, iterations(w, seconds) / 2);
    while (traced_walls.size() < pairs) {
        cpus.next(); // both halves of a pair on one CPU
        // Alternate which half runs first: an iteration inherits the
        // heap its predecessor left, and a traced one leaves a large
        // freed trace behind.
        const bool traced_first = traced_walls.size() % 2 == 0;
        Outcome t, u;
        for (bool want_traced : {traced_first, !traced_first}) {
            Scope s(hs, want_traced ? "run.traced" : "run.untraced",
                    w.name);
            (want_traced ? t : u) = w.run(seed, want_traced);
        }
        Scope v(hs, "verify", w.name);
        gate(res, t, w.name);
        gate(res, u, w.name);
        check_same(res, determinism_diff(ref, t, false, "traced"));
        check_same(res, determinism_diff(ref, u, true, "rerun"));
        traced_walls.push_back(t.trace_window_s);
        untraced_walls.push_back(u.trace_window_s);
        if (traced_walls.size() == 1)
            traced = std::move(t);
    }

    std::printf("  probe shape (%s): %zu pending events, %zu of %zu "
                "translation-table entries live\n",
                ref.shape.measured ? "read at the trace window's start"
                                   : "assumed, see reference.json",
                ref.shape.pending_events, ref.shape.cuckoo_live,
                ref.shape.cuckoo_capacity);
    Metrics probes;
    {
        Scope s(hs, "probes", w.name);
        probes = run_probes(ref.shape, seed, hs, w.name);
    }

    Metrics& m = res.metrics;
    m["alloc.per_op"] = ref.layers.at("alloc.per_op");
    m["alloc.bytes_per_op"] = ref.layers.at("alloc.bytes_per_op");
    for (const auto& [name, p] : probes)
        m[name] = p;
    // Fastest over fastest, for the same reason as wall_s.
    m["trace.overhead_frac"] = {
        *std::min_element(traced_walls.begin(), traced_walls.end()) /
            *std::min_element(untraced_walls.begin(), untraced_walls.end()),
        "frac"};
    const SpanSamples& sp = traced.spans;
    for (size_t i = 0; i < SpanSamples::kLayers; ++i) {
        std::string base =
            std::string("span.sim.") + SpanSamples::kNames[i] + "_us";
        m[base + ".p50"] = {quantile(sp.layer_us[i], 0.5), "us"};
        m[base + ".p999"] = {quantile(sp.layer_us[i], 0.999), "us"};
    }
    m["span.sim.legs"] = {double(sp.legs), "count"};
    if (sp.legs < 1000 || sp.negative_spans) {
        std::printf("  FAIL spans: %" PRIu64 " complete legs, %" PRIu64
                    " with negative spans\n",
                    sp.legs, sp.negative_spans);
        res.correct = false;
    }

    if (!sp.round_trip_us.empty())
        std::printf("  traced round trips (two legs of one correlation "
                    "id): %zu, p50 %.3f us, max %.3f us\n",
                    sp.round_trip_us.size(),
                    quantile(sp.round_trip_us, 0.5),
                    quantile(sp.round_trip_us, 1.0));
    std::printf("  traced/untraced pairs: %zu, peak RSS %.1f MB\n",
                traced_walls.size(), peak_rss_mb());
    print_metrics("per-layer", m);
    Metrics layers = ref.layers;
    for (const auto& [name, v] : m)
        layers.erase(name);
    print_metrics("per-layer, workload-specific (stats read after the run)",
                  layers);
    return res;
}

void
print_json_number(double v)
{
    std::printf("%.17g", std::isfinite(v) ? v : 0.0); // JSON has no NaN/Inf
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::strtoull(v, nullptr, 0);
        else if (k == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            trace = std::atoi(v);
        else {
            std::fprintf(stderr, "unknown option %s\n", k.c_str());
            return 2;
        }
    }
    // One workload per process: peak RSS is a process-wide high-water
    // mark, so a workload run after a bigger one would inherit its peak.
    const WorkloadSpec* w = nullptr;
    for (const WorkloadSpec& spec : workloads())
        if (workload == spec.name)
            w = &spec;
    if (!w || (trace != 0 && trace != 1) || seconds <= 0 ||
        argc % 2 == 0) {
        std::fprintf(stderr,
                     "usage: %s --workload <echo64|rpc10k|zuc512> "
                     "--seed N --seconds S --trace 0|1\n",
                     argv[0]);
        return 2;
    }

    HostSpans hs(now_s());
    std::printf("machine: nproc=%u cpu=\"%s\" compiler=\"%s\" "
                "build=%s\n",
                std::thread::hardware_concurrency(), cpu_model().c_str(),
                FLD_PERFBENCH_COMPILER, FLD_PERFBENCH_BUILD_TYPE);
    // The reference kernel on every CPU in turn: machine drift and
    // per-CPU interference show beside wall_s.
    CpuRotation cpus;
    std::printf("machine: reference kernel ns/event (fixed schedule/run "
                "loop) per CPU:");
    {
        Scope s(hs, "reference_kernel", "-");
        for (size_t i = 0; i < cpus.size(); ++i) {
            int c = cpus.next();
            std::printf(" cpu%d=%.3f", c, reference_kernel_ns());
        }
    }
    std::printf("\n");

    std::printf("workload %s seed=%" PRIu64 " seconds=%g trace=%d\n",
                w->name, seed, seconds, trace);
    std::fflush(stdout);
    Result total;
    {
        Scope s(hs, trace ? "layers" : "end_to_end", w->name);
        total = trace ? measure_layers(*w, seed, seconds, hs, cpus)
                      : measure_e2e(*w, seed, seconds, hs, cpus);
    }
    std::fflush(stdout);

    if (trace) {
        std::printf("host spans (s since start):\n");
        const std::vector<HostSpan>& spans = hs.spans();
        for (size_t i = 0; i < spans.size(); ++i)
            std::printf("  span id=%zu parent=%d workload=%s name=%s "
                        "start=%.6f end=%.6f\n",
                        i, spans[i].parent, spans[i].workload.c_str(),
                        spans[i].name.c_str(), spans[i].start,
                        spans[i].end);
    }

    for (const auto& [name, m] : total.metrics)
        if (!std::isfinite(m.value)) {
            std::printf("  FAIL metric %s is not finite\n", name.c_str());
            total.correct = false;
        }

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                total.correct ? "true" : "false", total.attempted,
                total.failed);
    bool first = true;
    for (const auto& [name, m] : total.metrics) {
        std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ",
                    name.c_str());
        print_json_number(m.value);
        std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    return total.correct ? 0 : 1;
}
