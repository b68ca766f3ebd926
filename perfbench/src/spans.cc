/**
 * @file
 * Folds a recorded packet-lifecycle trace into simulated-time layer
 * spans, one set per transmit-to-receive leg.
 *
 * A leg starts when a NIC reads a descriptor's payload for transmit
 * (PayloadRead, carrying the packet's correlation id) and ends with
 * the receive completion the far NIC writes for it (CqeWrite Rx or
 * RxMini). Doorbells and SQ descriptor fetches carry no correlation
 * id; they are joined to the leg through (NIC, SQ, ring index): the
 * fetch covering the index, and the earliest doorbell whose producer
 * index passed it. A WQE-by-MMIO doorbell carries its WQE inline, so
 * its fetch time is the doorbell time.
 *
 *   doorbell_to_fetch  DoorbellWrite -> WqeFetch
 *   fetch_to_wire      WqeFetch      -> WireTx
 *   wire               WireTx        -> WireRx
 *   wire_to_payload    WireRx        -> PayloadWrite
 *   payload_to_cqe     PayloadWrite  -> CqeWrite (Rx)
 *
 * The five spans tile the leg, so they sum exactly to its end-to-end
 * time, CqeWrite - DoorbellWrite, by construction; what can fail is
 * causality, a boundary recorded before the one it follows (a
 * negative span). An echoed frame keeps its correlation id, so its
 * two legs also give a round trip, first doorbell to last CQE, that a
 * workload can hold against a latency it measures independently.
 */
#include <cstring>
#include <deque>
#include <unordered_map>

#include "perfbench.h"

namespace perfbench {

namespace {

using fld::sim::TraceEvent;
using Kind = fld::sim::TraceEventKind;
using Ps = int64_t;

struct Doorbell
{
    Ps time;
    uint32_t pi;
};

struct Fetched
{
    Ps doorbell;
    Ps fetch;
};

struct Leg
{
    enum Stage { Idle, Read, Sent, Arrived, Written } stage = Idle;
    Ps d = 0, f = 0, t = 0, x = 0, p = 0;
    const std::string* receiver = nullptr;
};

} // namespace

void
fold_spans(const std::vector<TraceEvent>& events, SpanSamples& out)
{
    std::unordered_map<std::string, uint64_t> actor_ids;
    auto actor_id = [&](const std::string& a) {
        return actor_ids.emplace(a, actor_ids.size()).first->second;
    };
    auto sq_key = [&](const std::string& a, uint32_t q) {
        return (actor_id(a) << 32) | q;
    };
    auto slot_key = [&](const std::string& a, uint32_t q, uint32_t i) {
        return (actor_id(a) << 48) | (uint64_t(q & 0xffffffu) << 16) |
               (i & 0xffffu); // WQE ring index travels mod 2^16
    };

    std::unordered_map<uint64_t, std::deque<Doorbell>> doorbells;
    std::unordered_map<uint64_t, Fetched> fetched;
    std::unordered_map<uint64_t, Ps> inline_doorbell; // by corr
    std::unordered_map<uint64_t, Leg> legs;           // by corr
    std::unordered_map<uint64_t, Ps> first_leg;       // by corr

    for (const TraceEvent& e : events) {
        const Ps t = Ps(e.time);
        switch (e.kind) {
        case Kind::DoorbellWrite:
            if (std::strcmp(e.detail, "sq") == 0)
                doorbells[sq_key(e.actor, e.queue)].push_back(
                    {t, e.index});
            else if (std::strcmp(e.detail, "sq_inline") == 0 && e.corr)
                inline_doorbell[e.corr] = t;
            break;
        case Kind::WqeFetch: {
            if (std::strcmp(e.detail, "sq") != 0)
                break;
            std::deque<Doorbell>& dq = doorbells[sq_key(e.actor, e.queue)];
            // Doorbells at or below the first fetched index were for
            // descriptors already fetched.
            while (!dq.empty() && int32_t(dq.front().pi - e.index) <= 0)
                dq.pop_front();
            for (uint32_t k = e.index; k != e.index + e.count; ++k) {
                Ps db = t;
                for (const Doorbell& d : dq)
                    if (int32_t(d.pi - k) > 0) {
                        db = d.time;
                        break;
                    }
                fetched[slot_key(e.actor, e.queue, k)] = {db, t};
            }
            break;
        }
        case Kind::PayloadRead: {
            if (!e.corr)
                break;
            Leg& leg = legs[e.corr];
            leg = Leg{};
            if (auto it = inline_doorbell.find(e.corr);
                it != inline_doorbell.end()) {
                leg.d = leg.f = it->second;
                inline_doorbell.erase(it);
            } else if (auto ft = fetched.find(
                           slot_key(e.actor, e.queue, e.index));
                       ft != fetched.end()) {
                leg.d = ft->second.doorbell;
                leg.f = ft->second.fetch;
            } else {
                break; // fetched before tracing began
            }
            leg.stage = Leg::Read;
            break;
        }
        case Kind::WireTx:
        case Kind::WireRx:
        case Kind::PayloadWrite: {
            if (!e.corr)
                break;
            auto it = legs.find(e.corr);
            if (it == legs.end())
                break;
            Leg& leg = it->second;
            if (e.kind == Kind::WireTx && leg.stage == Leg::Read) {
                leg.t = t;
                leg.stage = Leg::Sent;
            } else if (e.kind == Kind::WireRx && leg.stage == Leg::Sent) {
                leg.x = t;
                leg.stage = Leg::Arrived;
            } else if (e.kind == Kind::PayloadWrite &&
                       leg.stage == Leg::Arrived) {
                leg.p = t;
                leg.receiver = &e.actor;
                leg.stage = Leg::Written;
            }
            break;
        }
        case Kind::CqeWrite: {
            if (!e.corr || std::strncmp(e.detail, "Rx", 2) != 0)
                break;
            auto it = legs.find(e.corr);
            if (it == legs.end() || it->second.stage != Leg::Written ||
                *it->second.receiver != e.actor)
                break;
            const Leg& leg = it->second;
            const Ps span[SpanSamples::kLayers] = {
                leg.f - leg.d, leg.t - leg.f, leg.x - leg.t,
                leg.p - leg.x, t - leg.p};
            bool negative = false;
            for (Ps s : span)
                negative = negative || s < 0;
            if (negative)
                ++out.negative_spans;
            else {
                for (size_t i = 0; i < SpanSamples::kLayers; ++i)
                    out.layer_us[i].push_back(double(span[i]) * 1e-6);
                ++out.legs;
                if (auto fl = first_leg.find(e.corr);
                    fl != first_leg.end()) {
                    out.round_trip_us.push_back(double(t - fl->second) *
                                                1e-6);
                    first_leg.erase(fl);
                } else {
                    first_leg.emplace(e.corr, leg.d);
                }
            }
            legs.erase(it);
            break;
        }
        default:
            break;
        }
    }
}

} // namespace perfbench
