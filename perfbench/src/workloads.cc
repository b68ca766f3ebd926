/**
 * @file
 * The benchmark's three workloads, driven only through the library's
 * public entry points:
 *
 *  - echo64: FLD-E remote echo (apps::make_fld_echo), 64 B frames,
 *    16 UDP flows, open loop at 26 Gbps offered (just past 25 GbE
 *    line rate), pattern payloads verified and RTT stamped.
 *  - rpc10k: the RPC tier (apps::run_rpc_scenario), 10,000 closed-loop
 *    connections x 4 requests, 64-512 B payloads, exponential think
 *    time of mean 20 us, all four methods; FLD-served then CPU-served
 *    in one process, per-request digests compared.
 *  - zuc512: FLD-R remote ZUC EEA3 (apps::make_fldr_zuc +
 *    CryptoPerfClient), 512 B requests, closed loop of window 64,
 *    every response decrypted and checked against its plaintext.
 *
 * The workload seed feeds the generators' own seeds and the simulated
 * hosts' OS-jitter seeds; nothing else about the program changes.
 */
#include <algorithm>
#include <chrono>

#include "apps/rpc_harness.h"
#include "apps/scenarios.h"
#include "net/headers.h"
#include "net/rpc_codec.h"
#include "perfbench.h"
#include "util/rng.h"

namespace perfbench {

using namespace fld;

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/** splitmix64: derives independent sub-seeds from the workload seed. */
uint64_t
sub_seed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

apps::TestbedConfig
testbed_cfg(uint64_t seed)
{
    apps::TestbedConfig tc;
    tc.server_host.seed = sub_seed(seed, 1);
    tc.client_host.seed = sub_seed(seed, 2);
    return tc;
}

/** Percentile that keeps at least ten samples beyond it: the latency
 *  gate requires enough samples for p99.9 to qualify. */
constexpr size_t kMinLatencySamples = 10'000;

void
add_latency(Outcome& o, const sim::Histogram& h, const std::string& sfx)
{
    o.sim["sim_lat_p50_us" + sfx] = {h.percentile(50), "us"};
    o.sim["sim_lat_p999_us" + sfx] = {h.p(0.999), "us"};
    o.counts["sim_lat_samples" + sfx] = h.count();
    if (h.count() < kMinLatencySamples)
        o.errors.push_back("only " + std::to_string(h.count()) +
                           " latency samples" + sfx +
                           "; p99.9 needs 10000");
}

/** Host wall, event and allocation deltas over a traffic phase. */
class TrafficWindow
{
  public:
    explicit TrafficWindow(const sim::EventQueue* eq) : eq_(eq)
    {
        if (eq_) {
            events0_ = eq_->executed_total();
            wheel0_ = eq_->wheel_stats();
        }
        allocs0_ = alloc_calls();
        bytes0_ = alloc_bytes();
        t0_ = now_s();
    }

    /** Close the window and record its counts into @p o. */
    void close(Outcome& o)
    {
        o.wall_s = now_s() - t0_;
        o.counts["alloc.calls"] = alloc_calls() - allocs0_;
        o.counts["alloc.bytes"] = alloc_bytes() - bytes0_;
        if (eq_) {
            const sim::EventQueue::WheelStats& w = eq_->wheel_stats();
            o.counts["sim.events"] = eq_->executed_total() - events0_;
            o.counts["sim.wheel.bucket_drains"] =
                w.bucket_drains - wheel0_.bucket_drains;
            o.counts["sim.wheel.cascaded_events"] =
                w.cascaded_events - wheel0_.cascaded_events;
        }
    }

  private:
    const sim::EventQueue* eq_;
    sim::EventQueue::WheelStats wheel0_{};
    uint64_t events0_ = 0, allocs0_ = 0, bytes0_ = 0;
    double t0_ = 0;
};

/** Per-op allocation ratios, plus event-core ratios where the
 *  workload owns its event queue. */
void
add_core_layers(Outcome& o, double ops)
{
    auto per_op = [&](const char* count) {
        return ops > 0 ? double(o.counts[count]) / ops : 0.0;
    };
    o.layers["alloc.per_op"] = {per_op("alloc.calls"), "count"};
    o.layers["alloc.bytes_per_op"] = {per_op("alloc.bytes"), "B"};
    if (o.counts.count("sim.events")) {
        o.layers["sim.events_per_op"] = {per_op("sim.events"), "count"};
        uint64_t ev = o.counts["sim.events"];
        o.layers["sim.host_ns_per_event"] = {
            ev ? o.wall_s * 1e9 / double(ev) : 0.0, "ns"};
        o.layers["sim.wheel.bucket_drains"] = {
            double(o.counts["sim.wheel.bucket_drains"]), "count"};
        o.layers["sim.wheel.cascaded_events"] = {
            double(o.counts["sim.wheel.cascaded_events"]), "count"};
    }
}

/** NIC, PCIe and FLD counters of a testbed, into exact counts. The
 *  fabric's ports are created in Testbed's fixed order. */
void
add_testbed_counts(Outcome& o, const apps::Testbed& tb)
{
    const char* port_names[] = {"server_host", "server_nic", "fld",
                                "client_host", "client_nic"};
    uint64_t txns = 0;
    for (pcie::PortId p = 0; p < 5; ++p) {
        const pcie::PortStats& st = tb.fabric.stats(p);
        txns += st.reads + st.writes;
        std::string base = std::string("pcie.") + port_names[p];
        o.counts[base + ".egress_bytes"] = st.egress_bytes;
        o.counts[base + ".ingress_bytes"] = st.ingress_bytes;
    }
    o.counts["pcie.txns"] = txns;

    for (const auto& [name, nic] :
         {std::pair{"server_nic", tb.server_nic.get()},
          std::pair{"client_nic", tb.client_nic.get()}}) {
        const nic::NicStats& st = nic->stats();
        std::string base = std::string("nic.") + name;
        o.counts[base + ".drops_no_buffer"] = st.drops_no_buffer;
        o.counts[base + ".rdma_acks"] = st.rdma_acks;
        o.counts[base + ".rdma_retransmits"] = st.rdma_retransmits;
    }

    const core::FldStats& f = tb.fld->stats();
    o.counts["fld.doorbells"] = f.doorbells;
    o.counts["fld.cqes"] = f.cqes;
    o.counts["fld.wqe_reads"] = f.wqe_reads;
    o.counts["fld.tx_rejected"] = f.tx_rejected;
    o.counts["fld.cuckoo.stash_inserts"] =
        tb.fld->tx_xlt().stats().stash_inserts;
}

void
add_testbed_layers(Outcome& o, const apps::Testbed& tb, double ops,
                   sim::TimePs run_time)
{
    auto per_op = [&](const std::string& c) {
        return ops > 0 ? double(o.counts[c]) / ops : 0.0;
    };
    o.layers["pcie.txns_per_op"] = {per_op("pcie.txns"), "count"};
    const struct
    {
        const char* port;
        double gbps;
    } ports[] = {{"server_host", tb.cfg.pcie_gbps},
                 {"server_nic", tb.cfg.nic_internal_gbps},
                 {"fld", tb.cfg.pcie_gbps}};
    for (const auto& p : ports) {
        std::string base = std::string("pcie.") + p.port;
        uint64_t eg = o.counts[base + ".egress_bytes"];
        uint64_t in = o.counts[base + ".ingress_bytes"];
        o.layers[std::string("pcie.bytes_per_op.") + p.port] = {
            ops > 0 ? double(eg + in) / ops : 0.0, "B"};
        const double sec = sim::to_us(run_time) * 1e-6;
        o.layers[std::string("pcie.util.") + p.port] = {
            sec > 0 ? double(std::max(eg, in)) * 8.0 / (sec * p.gbps * 1e9)
                    : 0.0,
            "frac"};
    }
    o.layers["fld.doorbells_per_op"] = {per_op("fld.doorbells"), "count"};
    o.layers["fld.cqes_per_op"] = {per_op("fld.cqes"), "count"};
    o.layers["fld.wqe_reads_per_op"] = {per_op("fld.wqe_reads"), "count"};
    o.layers["fld.tx_rejected"] = {double(o.counts["fld.tx_rejected"]),
                                   "count"};
    o.layers["fld.cuckoo.stash_inserts"] = {
        double(o.counts["fld.cuckoo.stash_inserts"]), "count"};
}

void
add_accel_counts(Outcome& o, const accel::Accelerator& afu)
{
    o.counts["accel.dropped_overload"] = afu.stats().dropped_overload;
    o.counts["accel.tx_failed"] = afu.stats().tx_failed;
    o.layers["accel.dropped_overload"] = {
        double(afu.stats().dropped_overload), "count"};
    o.layers["accel.tx_failed"] = {double(afu.stats().tx_failed),
                                   "count"};
}

/**
 * Run the traffic phase in fixed simulated-time slices, timing each;
 * the cuts are the same in every iteration of one seed, traced or
 * not. A traced iteration traces [warmup, warmup + trace_len); both
 * must be whole slices. The probe shape's pending-set size and FLD
 * translation-table occupancy are read where the trace window opens.
 */
void
run_sliced(apps::Testbed& tb, sim::TimePs base, sim::TimePs slice,
           sim::TimePs warmup, sim::TimePs trace_len, bool traced,
           Outcome& o)
{
    sim::EventQueue& eq = tb.eq;
    sim::Tracer tracer;
    const sim::TimePs trace_from = base + warmup;
    const sim::TimePs trace_to = trace_from + trace_len;
    double window0 = 0;
    for (sim::TimePs end = base + slice; eq.pending() > 0; end += slice) {
        if (end - slice == trace_from) {
            o.shape.pending_events = eq.pending();
            o.shape.cuckoo_live = tb.fld->tx_xlt().size();
            window0 = now_s();
            if (traced)
                tracer.install();
        }
        double t0 = now_s();
        eq.run_until(end);
        o.slice_s.push_back(now_s() - t0);
        if (end == trace_to) {
            if (traced)
                tracer.uninstall();
            o.trace_window_s = now_s() - window0;
        }
    }
    if (traced)
        fold_spans(tracer.events(), o.spans);
}

/** UDP frames of @p frame_bytes over @p flows seeded source ports. */
std::vector<net::Packet>
udp_frames(uint64_t seed, size_t frame_bytes, uint32_t flows,
           uint16_t dport)
{
    Rng rng(sub_seed(seed, 3));
    size_t payload = frame_bytes - net::kEthHeaderLen -
                     net::kIpv4HeaderLen - net::kUdpHeaderLen;
    std::vector<net::Packet> out;
    for (uint32_t i = 0; i < 256; ++i) {
        std::vector<uint8_t> body(payload);
        for (uint8_t& b : body)
            b = uint8_t(rng.next());
        out.push_back(net::PacketBuilder()
                          .eth(apps::kClientMac, apps::kServerMac)
                          .ipv4(net::ipv4_addr(10, 0, 0, 2),
                                net::ipv4_addr(10, 0, 0, 1),
                                net::kIpProtoUdp)
                          .udp(uint16_t(40000 + i % flows), dport)
                          .payload(body)
                          .build());
    }
    return out;
}

// ---------------------------------------------------------------------
// echo64
// ---------------------------------------------------------------------

constexpr sim::TimePs kEchoSlice = sim::microseconds(50);
constexpr sim::TimePs kEchoWarmup = sim::microseconds(500);
constexpr sim::TimePs kEchoDuration = sim::microseconds(2500);
constexpr sim::TimePs kEchoTraceLen = sim::microseconds(500);
constexpr uint32_t kEchoFlows = 16;

std::unique_ptr<apps::EchoScenario>
build_echo(uint64_t seed)
{
    apps::PktGenConfig g;
    g.frame_size = 64;
    g.offered_gbps = 26.0;
    g.flows = kEchoFlows;
    g.measure_rtt = true;
    g.pattern_payload = true;
    g.seed = sub_seed(seed, 0);
    return apps::make_fld_echo(true, g, testbed_cfg(seed));
}

double
echo_setup(uint64_t seed)
{
    double t0 = now_s();
    auto s = build_echo(seed);
    return now_s() - t0;
}

Outcome
run_echo64(uint64_t seed, bool traced)
{
    Outcome o;
    auto s = build_echo(seed);

    apps::Testbed& tb = *s->tb;
    apps::PacketGen& gen = *s->gen;
    sim::TimePs base = tb.eq.now();
    TrafficWindow win(&tb.eq);
    gen.start(kEchoWarmup, kEchoDuration);
    run_sliced(tb, base, kEchoSlice, kEchoWarmup, kEchoTraceLen, traced,
               o);
    win.close(o);

    const double tx = double(gen.tx_count());
    const double rx = double(gen.rx_count());
    o.sim["sim_gbps"] = {gen.rx_meter().gbps(gen.measure_start(),
                                             gen.measure_end()),
                         "Gbps"};
    double mpps =
        gen.rx_meter().mpps(gen.measure_start(), gen.measure_end());
    o.sim["sim_req_per_s"] = {mpps * 1e6, "1/s"};
    add_latency(o, gen.rtt_us(), "");
    o.extra_e2e["sim_mpps"] = {mpps, "Mpps"};
    o.extra_e2e["sim_loss_frac"] = {tx > 0 ? (tx - rx) / tx : 0.0,
                                    "frac"};

    o.counts["gen.tx"] = gen.tx_count();
    o.counts["gen.rx"] = gen.rx_count();
    o.counts["gen.bad_payload"] = gen.bad_payload();
    o.counts["driver.tx_backpressured"] =
        s->gen_driver->stats().tx_backpressured;
    add_testbed_counts(o, tb);
    add_core_layers(o, rx);
    add_testbed_layers(o, tb, rx, tb.eq.now() - base);
    add_accel_counts(o, *s->echo);
    double drops = double(o.counts["nic.server_nic.drops_no_buffer"] +
                          o.counts["nic.client_nic.drops_no_buffer"]);
    o.layers["nic.drops_no_buffer_frac"] = {tx > 0 ? drops / tx : 0.0,
                                            "frac"};
    o.layers["driver.tx_backpressured"] = {
        double(o.counts["driver.tx_backpressured"]), "count"};
    const double run_sec = sim::to_us(tb.eq.now() - base) * 1e-6;
    uint32_t core = s->gen_driver->core_of(0);
    o.layers["driver.host_busy_frac.client"] = {
        run_sec > 0 ? sim::to_us(tb.client_host.core_busy_time(core)) *
                          1e-6 / run_sec
                    : 0.0,
        "frac"};

    // Correctness gate: every echo carries its pattern intact.
    o.attempted = gen.tx_count();
    o.failed = gen.bad_payload();
    if (gen.bad_payload())
        o.errors.push_back(std::to_string(gen.bad_payload()) +
                           " echoes failed pattern verification");
    if (gen.rx_count() == 0)
        o.errors.push_back("no echoes received");
    if (gen.rx_count() > gen.tx_count())
        o.errors.push_back("more echoes than frames sent");
    // Cross-check of the folded trace against the generator's own RTT
    // stamps: a frame is stamped before its first doorbell and timed
    // after its last CQE, so no traced round trip may exceed the
    // longest RTT the generator recorded.
    if (traced) {
        const std::vector<double>& rt = o.spans.round_trip_us;
        const double longest =
            rt.empty() ? 0.0 : *std::max_element(rt.begin(), rt.end());
        if (rt.size() < 1000)
            o.errors.push_back("only " + std::to_string(rt.size()) +
                               " traced round trips");
        if (longest > gen.rtt_us().max() + 1e-6)
            o.errors.push_back("traced round trip of " +
                               std::to_string(longest) +
                               " us exceeds the longest measured RTT, " +
                               std::to_string(gen.rtt_us().max()) + " us");
    }

    o.shape.frames = udp_frames(seed, 64, kEchoFlows, 9000);
    o.shape.payload_sizes.assign(1, uint32_t(64 - 42));
    o.shape.rules = tb.server_nic->flows();
    o.shape.cuckoo_capacity = tb.fld->tx_xlt().capacity();
    return o;
}

// ---------------------------------------------------------------------
// zuc512
// ---------------------------------------------------------------------

constexpr sim::TimePs kZucSlice = sim::microseconds(50);
constexpr sim::TimePs kZucWarmup = sim::milliseconds(1);
constexpr sim::TimePs kZucDuration = sim::milliseconds(6);
constexpr sim::TimePs kZucTraceLen = sim::microseconds(1500);
constexpr size_t kZucPayload = 512;
constexpr uint32_t kZucWindow = 64;

struct ZucRig
{
    std::unique_ptr<apps::FldrScenario> s;
    std::unique_ptr<apps::CryptoPerfClient> perf;
};

ZucRig
build_zuc(uint64_t seed)
{
    ZucRig r;
    r.s = apps::make_fldr_zuc(true, testbed_cfg(seed));
    apps::CryptoPerfConfig c;
    c.request_payload = kZucPayload;
    c.window = kZucWindow;
    c.verify = true;
    c.seed = sub_seed(seed, 0);
    r.perf = std::make_unique<apps::CryptoPerfClient>(r.s->tb->eq,
                                                      *r.s->client, c);
    return r;
}

double
zuc_setup(uint64_t seed)
{
    double t0 = now_s();
    ZucRig r = build_zuc(seed);
    return now_s() - t0;
}

Outcome
run_zuc512(uint64_t seed, bool traced)
{
    Outcome o;
    ZucRig r = build_zuc(seed);

    apps::Testbed& tb = *r.s->tb;
    apps::CryptoPerfClient& perf = *r.perf;
    sim::TimePs base = tb.eq.now();
    TrafficWindow win(&tb.eq);
    perf.start(kZucWarmup, kZucDuration);
    run_sliced(tb, base, kZucSlice, kZucWarmup, kZucTraceLen, traced,
               o);
    win.close(o);

    const double resp = double(perf.responses());
    o.sim["sim_gbps"] = {perf.response_meter().gbps(
                             perf.measure_start(), perf.last_response()),
                         "Gbps"};
    o.sim["sim_req_per_s"] = {perf.response_meter().mpps(
                                  perf.measure_start(),
                                  perf.last_response()) *
                                  1e6,
                              "1/s"};
    add_latency(o, perf.latency_us(), "");

    o.counts["zuc.responses"] = perf.responses();
    o.counts["zuc.verified_ok"] = perf.verified_ok();
    o.counts["zuc.verified_bad"] = perf.verified_bad();
    add_testbed_counts(o, tb);
    add_core_layers(o, resp);
    add_testbed_layers(o, tb, resp, tb.eq.now() - base);
    add_accel_counts(o, *r.s->afu);
    uint64_t acks = o.counts["nic.server_nic.rdma_acks"] +
                    o.counts["nic.client_nic.rdma_acks"];
    o.layers["nic.rdma_acks_per_msg"] = {
        resp > 0 ? double(acks) / resp : 0.0, "count"};
    o.layers["nic.rdma_retransmits"] = {
        double(o.counts["nic.server_nic.rdma_retransmits"] +
               o.counts["nic.client_nic.rdma_retransmits"]),
        "count"};

    // Correctness gate: every response decrypts to its plaintext.
    o.attempted = perf.responses();
    o.failed = perf.responses() - perf.verified_ok();
    if (perf.verified_ok() != perf.responses() || perf.verified_bad())
        o.errors.push_back(
            "ZUC round trip: " + std::to_string(perf.verified_ok()) +
            " verified of " + std::to_string(perf.responses()) + ", " +
            std::to_string(perf.verified_bad()) + " bad");
    if (perf.responses() == 0)
        o.errors.push_back("no ZUC responses");

    // RoCE v2 frames carrying the ZUC header plus a 512 B request.
    o.shape.frames = udp_frames(seed, kZucPayload + 42 + 40, 1, 4791);
    o.shape.payload_sizes.assign(1, uint32_t(kZucPayload));
    o.shape.rules = tb.server_nic->flows();
    o.shape.cuckoo_capacity = tb.fld->tx_xlt().capacity();
    return o;
}

// ---------------------------------------------------------------------
// rpc10k
// ---------------------------------------------------------------------

constexpr uint32_t kRpcConns = 10'000;
constexpr uint32_t kRpcRequests = 4;

apps::RpcHarnessConfig
rpc_cfg(apps::FastPathMode mode, uint64_t seed, uint32_t conns,
        uint32_t requests)
{
    // Same pacing and RTO tuning as bench_rpc's 10k point.
    apps::RpcHarnessConfig cfg;
    cfg.mode = mode;
    cfg.client.connections = conns;
    cfg.client.requests_per_conn = requests;
    cfg.client.payload_min = 64;
    cfg.client.payload_max = 512;
    cfg.client.methods_mask = 0xf; // echo + zuc + defrag + busy
    cfg.client.think_mean = sim::microseconds(20);
    cfg.client.seed = sub_seed(seed, 0);
    cfg.client.open_batch = 64;
    cfg.client.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.client.tx_ring_entries = 256;
    cfg.client.rx_ring_entries = 1024;
    cfg.server.tx_ring_entries = 512;
    cfg.server.rx_ring_entries = 1024;
    cfg.tb = testbed_cfg(seed);
    return cfg;
}

/** run_rpc_scenario builds its testbed internally, so set-up is the
 *  same call serving one connection with one request per mode. */
double
rpc_setup(uint64_t seed)
{
    double t0 = now_s();
    for (apps::FastPathMode m :
         {apps::FastPathMode::Fld, apps::FastPathMode::Cpu})
        apps::run_rpc_scenario(rpc_cfg(m, seed, 1, 1));
    return now_s() - t0;
}

apps::RpcReport
run_rpc_mode(apps::FastPathMode mode, uint64_t seed, bool traced,
             SpanSamples& spans)
{
    sim::Tracer tracer;
    if (traced)
        tracer.install();
    apps::RpcReport r =
        apps::run_rpc_scenario(rpc_cfg(mode, seed, kRpcConns,
                                       kRpcRequests));
    if (traced) {
        tracer.uninstall();
        fold_spans(tracer.events(), spans);
    }
    return r;
}

void
add_rpc_mode(Outcome& o, const apps::RpcReport& r, const std::string& sfx)
{
    o.counts["rpc.state_hash" + sfx] = r.state_hash;
    o.counts["rpc.digest_hash" + sfx] = r.digest_hash;
    o.counts["rpc.responses" + sfx] = r.client_app.responses;
    const uint64_t retx =
        r.client_stats.retransmits + r.server_stats.retransmits;
    const uint64_t stalls =
        r.client_stats.rx_ring_stalls + r.server_stats.rx_ring_stalls;
    const uint64_t bp = r.client_stats.driver_backpressure +
                        r.server_stats.driver_backpressure;
    o.counts["fastpath.retransmits" + sfx] = retx;
    o.counts["fastpath.rx_ring_stalls" + sfx] = stalls;
    o.counts["fastpath.driver_backpressure" + sfx] = bp;
    o.counts["rpc.client.tx_ring_full" + sfx] = r.client_app.tx_ring_full;
    o.layers["fastpath.retransmits" + sfx] = {double(retx), "count"};
    o.layers["fastpath.rx_ring_stalls" + sfx] = {double(stalls), "count"};
    o.layers["fastpath.driver_backpressure" + sfx] = {double(bp),
                                                      "count"};
    o.layers["rpc.client.tx_ring_full" + sfx] = {
        double(r.client_app.tx_ring_full), "count"};
    const double busy_cap =
        double(r.end_time) *
        double(apps::RpcServiceConfig{}.workers);
    o.layers["rpc.dispatch.busy_frac" + sfx] = {
        busy_cap > 0 ? double(r.dispatch.busy_time) / busy_cap : 0.0,
        "frac"};
}

Outcome
run_rpc10k(uint64_t seed, bool traced)
{
    Outcome o;
    // run_rpc_scenario cannot be paused: each serving mode is one
    // work slice.
    TrafficWindow win(nullptr);
    const double t0 = now_s();
    apps::RpcReport fld =
        run_rpc_mode(apps::FastPathMode::Fld, seed, traced, o.spans);
    const double t1 = now_s();
    apps::RpcReport cpu =
        run_rpc_mode(apps::FastPathMode::Cpu, seed, traced, o.spans);
    win.close(o);
    o.slice_s = {t1 - t0, now_s() - t1};
    o.trace_window_s = o.wall_s;
    o.extra_e2e["wall_s.fld"] = {o.slice_s[0], "s"};
    o.extra_e2e["wall_s.cpu"] = {o.slice_s[1], "s"};

    o.sim["sim_gbps"] = {fld.goodput_gbps, "Gbps"};
    o.sim["sim_req_per_s"] = {fld.req_per_sec, "1/s"};
    add_latency(o, fld.latency, "");
    o.sim["sim_req_per_s.cpu"] = {cpu.req_per_sec, "1/s"};
    add_latency(o, cpu.latency, ".cpu");
    add_rpc_mode(o, fld, "");
    add_rpc_mode(o, cpu, ".cpu");
    const double ops = double(fld.client_app.responses +
                              cpu.client_app.responses);
    add_core_layers(o, ops);

    // Correctness gate: both modes pass every harness oracle, finish
    // every request, and agree on every per-request digest.
    const uint64_t expect = uint64_t(kRpcConns) * kRpcRequests;
    o.attempted = 2 * expect;
    for (const auto& [mode, r] :
         {std::pair{"fld", &fld}, std::pair{"cpu", &cpu}}) {
        uint64_t bad = expect - std::min(expect, r->client_app.responses) +
                       r->client_app.conformance_errors +
                       r->client_app.protocol_errors;
        if (!r->ok && bad == 0)
            bad = 1;
        o.failed += bad;
        if (!r->ok)
            o.errors.push_back(
                std::string(mode) + " harness: " +
                (r->violations.empty() ? std::string("not ok")
                                       : r->violations.front()));
    }
    if (fld.digest_hash != cpu.digest_hash) {
        uint64_t differ = 0;
        for (const auto& [id, d] : fld.digests) {
            auto it = cpu.digests.find(id);
            differ += it == cpu.digests.end() || it->second != d;
        }
        o.failed += std::max<uint64_t>(differ, 1);
        o.errors.push_back("FLD and CPU per-request digests differ");
    }

    // Probe shapes: TCP frames carrying RPC frames of the workload's
    // payload sizes, and the FLD-mode steering the harness installs.
    Rng rng(sub_seed(seed, 3));
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t len = 64 + uint32_t(rng.uniform(512 - 64 + 1));
        o.shape.payload_sizes.push_back(len);
        std::vector<uint8_t> payload(len);
        for (uint8_t& b : payload)
            b = uint8_t(rng.next());
        std::vector<uint8_t> frame =
            rpc::encode_frame(uint8_t(i % 4), i, payload.data(), len);
        o.shape.frames.push_back(
            net::PacketBuilder()
                .eth(apps::kClientMac, apps::kServerMac)
                .ipv4(net::ipv4_addr(10, 0, 0, 2),
                      net::ipv4_addr(10, 0, 0, 1), net::kIpProtoTcp)
                .tcp(uint16_t(21000 + i), 7100, i * 1000u, 1,
                     0x18 /* PSH|ACK */)
                .payload(frame)
                .build());
    }
    apps::Testbed tb(testbed_cfg(seed));
    auto q0 = tb.rt->create_eth_queue(tb.fld_vport, 0, 16);
    nic::FlowMatch from_wire;
    from_wire.in_vport = nic::kUplinkVport;
    tb.server_nic->add_rule(0, 0, from_wire, {nic::fwd_queue(q0.rqn)});
    tb.route_vport_to_uplink(*tb.server_nic, tb.fld_vport);
    o.shape.rules = tb.server_nic->flows();
    // RpcReport hides the testbed, so these two are assumptions: one
    // RTO timer per connection, and the translation table half full
    // (its design load factor) under 10k connections.
    o.shape.measured = false;
    o.shape.pending_events = kRpcConns;
    o.shape.cuckoo_capacity = tb.fld->tx_xlt().capacity();
    o.shape.cuckoo_live = std::min<size_t>(
        kRpcConns, tb.fld->tx_xlt().capacity() / 2);
    return o;
}

} // namespace

const std::vector<WorkloadSpec>&
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"echo64", run_echo64, echo_setup, 0.4},
        {"rpc10k", run_rpc10k, rpc_setup, 3.5},
        {"zuc512", run_zuc512, zuc_setup, 0.6},
    };
    return specs;
}

} // namespace perfbench
