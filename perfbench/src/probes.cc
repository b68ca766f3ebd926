/**
 * @file
 * Per-module probes: time one public function of each layer on inputs
 * built from the workload's own seed and shapes (frames, payload
 * sizes, installed steering rules, pending-set size). A probe gives
 * the cost per call, not the layer's share of the simulation's wall
 * time. Each probe reports the median of several timed batches.
 */
#include <algorithm>

#include "crypto/zuc.h"
#include "fld/cuckoo.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/rpc_codec.h"
#include "nic/pipeline.h"
#include "perfbench.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace perfbench {

using namespace fld;

namespace {

constexpr int kBatches = 7;
/** Table uplink traffic enters the steering pipeline at. */
constexpr uint32_t kRxTable = 0;
constexpr double kBatchSeconds = 0.004;

/** Keeps probe results observable so the timed work is not elided. */
volatile uint64_t g_sink = 0;

void
keep(uint64_t v)
{
    g_sink = g_sink + v;
}

/**
 * Median over kBatches of the host ns per unit of @p batch, which runs
 * the probed call and returns the units it did. The call count per
 * batch is sized from a first calibration pass.
 */
template <class Batch>
double
median_ns_per_unit(Batch&& batch)
{
    double t0 = now_s();
    batch();
    double one = std::max(now_s() - t0, 1e-7);
    int reps = std::max(1, int(kBatchSeconds / one));
    std::vector<double> per_unit;
    for (int b = 0; b < kBatches; ++b) {
        double units_total = 0;
        double s = now_s();
        for (int r = 0; r < reps; ++r)
            units_total += batch();
        per_unit.push_back((now_s() - s) * 1e9 / units_total);
    }
    std::nth_element(per_unit.begin(), per_unit.begin() + kBatches / 2,
                     per_unit.end());
    return per_unit[kBatches / 2];
}

/**
 * Host ns per event of a self-rearming timer population of
 * @p population entries, @p events executions in total, with delays
 * spread across the wheel levels the way real runs use them.
 */
double
schedule_run_ns(size_t population, uint64_t events, uint64_t seed)
{
    return median_ns_per_unit([&] {
        sim::EventQueue eq;
        Rng rng(seed);
        uint64_t fired = 0;
        struct Timer
        {
            sim::EventQueue* eq;
            Rng* rng;
            uint64_t* fired;
            uint64_t budget;
            void arm()
            {
                sim::TimePs delay =
                    rng->uniform(100) < 2
                        ? sim::microseconds(50)
                        : sim::TimePs(1) << (14 + rng->uniform(8));
                eq->schedule_in(delay, [this] {
                    if (++*fired < budget)
                        arm();
                });
            }
        };
        std::vector<Timer> timers(population,
                                  Timer{&eq, &rng, &fired, events});
        for (Timer& t : timers)
            t.arm();
        eq.run();
        return double(eq.executed_total());
    });
}

} // namespace

double
reference_kernel_ns()
{
    return schedule_run_ns(1024, 200'000, 0x7e57);
}

Metrics
run_probes(const ProbeShape& shape, uint64_t seed, HostSpans& hs,
           const std::string& workload)
{
    Metrics m;
    auto probe = [&](const char* name, auto&& batch) {
        Scope s(hs, name, workload);
        m[name] = {median_ns_per_unit(batch), "ns"};
    };
    const std::vector<net::Packet>& frames = shape.frames;
    const double nframes = double(frames.size());

    {
        Scope s(hs, "sim.probe.schedule_run_ns", workload);
        size_t pending =
            std::clamp<size_t>(shape.pending_events, 16, 100'000);
        m["sim.probe.schedule_run_ns"] = {
            schedule_run_ns(pending,
                            std::max<uint64_t>(200'000, 4 * pending), seed),
            "ns"};
    }

    probe("net.probe.parse_ns", [&] {
        for (const net::Packet& p : frames)
            keep(net::parse(p).payload_len);
        return nframes;
    });
    probe("net.probe.flow_fields_ns", [&] {
        for (const net::Packet& p : frames)
            keep(nic::FlowFields::of(p, nic::kUplinkVport).sport);
        return nframes;
    });
    // IPv4 header plus L4 checksum, as a NIC checksum offload computes.
    probe("net.probe.checksum_ns", [&] {
        for (const net::Packet& p : frames) {
            const uint8_t* ip = p.bytes() + net::kEthHeaderLen;
            size_t l4_len =
                p.size() - net::kEthHeaderLen - net::kIpv4HeaderLen;
            keep(net::ipv4_header_checksum(ip, net::kIpv4HeaderLen));
            keep(net::internet_checksum(ip + net::kIpv4HeaderLen, l4_len));
        }
        return nframes;
    });

    std::vector<nic::FlowFields> fields;
    for (const net::Packet& p : frames)
        fields.push_back(nic::FlowFields::of(p, nic::kUplinkVport));
    nic::FlowTables fixed = shape.rules;
    probe("nic.probe.steer_ns.fixed", [&] {
        for (const nic::FlowFields& f : fields)
            keep(fixed.lookup(kRxTable, f) != nullptr);
        return double(fields.size());
    });
    nic::Pipeline compiled(nic::Pipeline::config_from(shape.rules));
    probe("nic.probe.steer_ns.compiled", [&] {
        for (const nic::FlowFields& f : fields)
            keep(compiled.lookup(kRxTable, f) != nullptr);
        return double(fields.size());
    });

    core::CuckooTable table(std::max<size_t>(shape.cuckoo_capacity, 1));
    std::vector<uint64_t> keys;
    {
        Rng rng(seed ^ 0xc0c0);
        size_t live =
            std::clamp<size_t>(shape.cuckoo_live, 1, table.capacity());
        while (keys.size() < live) {
            uint64_t k = rng.next();
            if (!table.insert(k, uint32_t(keys.size())))
                break;
            keys.push_back(k);
        }
    }
    probe("fld.probe.cuckoo_lookup_ns", [&] {
        for (uint64_t k : keys)
            keep(table.lookup(k).value_or(0));
        return double(keys.size());
    });

    std::vector<std::vector<uint8_t>> payloads;
    double payload_kib = 0;
    {
        Rng rng(seed ^ 0x2c);
        for (uint32_t len : shape.payload_sizes) {
            std::vector<uint8_t> p(len);
            for (uint8_t& b : p)
                b = uint8_t(rng.next());
            payloads.push_back(std::move(p));
            payload_kib += double(len) / 1024.0;
        }
    }
    crypto::Zuc::Key key{};
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = uint8_t(seed >> (8 * (i % 8)));
    probe("crypto.probe.eea3_ns_per_kib", [&] {
        for (auto& p : payloads)
            crypto::eea3_crypt(key, 1, 3, 0, p.data(), p.size() * 8);
        keep(payloads.front().front());
        return payload_kib;
    });

    // Encode plus FrameDecoder, per frame of the workload's sizes.
    probe("rpc.probe.codec_ns", [&] {
        std::vector<uint8_t> wire;
        rpc::FrameDecoder dec;
        rpc::Frame f;
        uint64_t id = 0;
        for (const auto& p : payloads) {
            wire.clear();
            rpc::append_frame(wire, 0, ++id, p.data(), p.size());
            dec.feed(wire.data(), wire.size());
            while (dec.next(&f))
                keep(f.payload.size());
        }
        return double(payloads.size());
    });
    return m;
}

} // namespace perfbench
