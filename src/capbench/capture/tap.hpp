// Interfaces between the driver (kernel side) and capture stacks, and
// between capture stacks and application threads (reader side).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "capbench/bpf/decoded.hpp"
#include "capbench/bpf/insn.hpp"
#include "capbench/bpf/jit/jit_program.hpp"
#include "capbench/bpf/threaded_vm.hpp"
#include "capbench/bpf/vm.hpp"
#include "capbench/hostsim/arch.hpp"
#include "capbench/hostsim/machine.hpp"
#include "capbench/net/packet.hpp"

namespace capbench::obs {
class AppObserver;
}

namespace capbench::capture {

/// Per-consumer capture statistics (the pcap_stats analog).  Every fate
/// is counted once, by the StackEndpoint accounting helpers below; the
/// obs layer maps these counters to the drop ledger (obs::app_ledger).
struct CaptureStats {
    std::uint64_t kernel_seen = 0;     // packets offered to this tap
    std::uint64_t accepted = 0;        // passed the filter
    std::uint64_t dropped_filter = 0;  // rejected by the filter (aborts included)
    std::uint64_t dropped_buffer = 0;  // accepted but no buffer space (ps_drop)
    std::uint64_t delivered = 0;       // handed to the application (ps_recv)
    std::uint64_t delivered_bytes = 0;
    /// Filter runs that ended in a VM fault (out-of-bounds load, division
    /// by zero) rather than a verdict.  A subset of dropped_filter — the
    /// drop identity delivered + Σdrops == generated is unaffected.
    std::uint64_t filter_aborts = 0;
    /// Packets the fanout group routed to a different tap (queue- or
    /// cluster-mode delivery).  Zero kernel work — that is the point of
    /// fanout — but counted so the per-app drop identity stays closed.
    std::uint64_t fanout_skipped = 0;
};

/// Kernel-side interface: the driver asks each tap to plan (cost) and then,
/// when the kernel work for the packet completes, to commit (buffer state
/// mutation + reader wakeup).  plan/commit are called strictly in FIFO
/// pairs per tap.
class PacketTap {
public:
    virtual ~PacketTap() = default;

    /// Runs the filter and returns the kernel work this tap adds for the
    /// packet (filter interpretation, clone/enqueue, buffer copy).
    virtual hostsim::Work plan(const net::PacketPtr& packet) = 0;

    /// Applies the planned action: enqueue/copy into the consumer's buffer
    /// or count a drop; wakes the reader when data becomes available.
    virtual void commit(const net::PacketPtr& packet) = 0;

    /// The fanout group delivered this packet to another tap: account it
    /// (CaptureStats::fanout_skipped) without planning any kernel work.
    virtual void fanout_skip() = 0;
};

/// Delivery policy of a fanout group (the taps attached to one driver).
enum class FanoutMode {
    kMirror,   // every tap sees every packet (the classic behaviour)
    kQueue,    // tap i is pinned to RSS queue i % queues
    kCluster,  // PF_RING-style: flow hash % tap count picks ONE tap
};

/// Decides which taps of a driver receive a packet, given its RSS queue
/// and flow hash.  Mirror mode (the default) reproduces the historical
/// every-tap-sees-everything delivery byte for byte.
class FanoutGroup {
public:
    FanoutGroup() = default;
    FanoutGroup(FanoutMode mode, int queues);

    [[nodiscard]] FanoutMode mode() const { return mode_; }
    [[nodiscard]] int queues() const { return queues_; }

    /// The RSS queue tap `index` is pinned to in kQueue mode.
    [[nodiscard]] int pinned_queue(std::size_t index) const {
        return static_cast<int>(index % static_cast<std::size_t>(queues_));
    }

    /// True when tap `index` (of `tap_count` attached taps) receives a
    /// packet that arrived on `queue` with flow hash `hash`.
    [[nodiscard]] bool targets(std::size_t index, std::size_t tap_count, int queue,
                               std::uint32_t hash) const;

private:
    FanoutMode mode_ = FanoutMode::kMirror;
    int queues_ = 1;
};

/// Shared filter-execution helper.  Runs the real BPF VM when packet bytes
/// are available.  Synthetic (size-only) packets are evaluated against a
/// template of the generator's default frame truncated to the packet's
/// length, so header-based filters (like the Figure 6.5 chain, which
/// matches every generated packet only after evaluating all instructions)
/// produce the right verdict and the real instruction-path cost.
class FilterRunner {
public:
    struct Verdict {
        bool accept = true;
        bool aborted = false;  // the VM faulted instead of returning a verdict
        std::uint32_t caplen = 0;
        std::uint32_t insns = 0;
    };

    /// The attach-time gate shared by all three capture stacks: runs the
    /// verifier (throwing std::invalid_argument with the structured
    /// finding on error-severity results) and caches the decoded tier-1
    /// form — and, under CAPBENCH_BPF_TIER=jit, the compiled tier-2 code —
    /// per program id.  An empty program clears the filter.  A jit request
    /// on a build without native support falls back to the threaded tier.
    void install(bpf::Program program);

    [[nodiscard]] bool has_filter() const { return !program_.empty(); }

    /// The decoded program executed by the threaded tier; null when no
    /// filter is installed or CAPBENCH_BPF_TIER=interpreter.  Also set
    /// under the jit tier (it backs the compiled code's id and stats).
    [[nodiscard]] const bpf::DecodedProgram* decoded() const { return decoded_.get(); }

    /// The compiled tier-2 code; null unless the jit tier is active.
    [[nodiscard]] const bpf::JitProgram* jit() const { return jit_.get(); }

    [[nodiscard]] Verdict run(const net::Packet& packet, std::uint32_t snaplen) const {
        Verdict v;
        const std::uint32_t whole = packet.frame_len();
        if (program_.empty()) {
            v.caplen = std::min(snaplen, whole);
            return v;
        }
        const std::span<const std::byte> data =
            packet.has_bytes()
                ? packet.bytes()
                : synthetic_template().subspan(
                      0, std::min<std::size_t>(whole, synthetic_template().size()));
        const bpf::VmResult r =
            jit_ != nullptr       ? jit_->run(data, whole)
            : decoded_ != nullptr ? bpf::ThreadedVm::run(*decoded_, data, whole)
                                  : bpf::Vm::run(program_, data, whole);
        v.accept = r.accept_len > 0;
        v.aborted = r.aborted;
        v.caplen = std::min({snaplen, whole, v.accept ? r.accept_len : 0u});
        v.insns = r.insns_executed;
        return v;
    }

private:
    /// A full-size frame with the generator's default addressing.
    static std::span<const std::byte> synthetic_template();

    bpf::Program program_;
    std::shared_ptr<const bpf::DecodedProgram> decoded_;
    std::shared_ptr<const bpf::JitProgram> jit_;
};

/// FIFO verdict handoff between plan() and commit().  The driver calls the
/// two in strictly matched pairs per tap; a commit without a matching plan
/// is a protocol violation that used to read `pending_[pending_head_++]`
/// out of bounds silently in Release builds — this helper fail-fasts
/// instead.  Storage is a vector reset once drained, so the steady state
/// reuses its capacity.
class PendingVerdicts {
public:
    void push(FilterRunner::Verdict verdict) { pending_.push_back(verdict); }

    /// Pops the oldest planned verdict; throws std::logic_error when no
    /// plan is outstanding (plan/commit mismatch).
    FilterRunner::Verdict pop() {
        if (head_ >= pending_.size())
            throw std::logic_error("PendingVerdicts: commit without a matching plan");
        const FilterRunner::Verdict verdict = pending_[head_++];
        if (head_ == pending_.size()) {
            pending_.clear();
            head_ = 0;
        }
        return verdict;
    }

    [[nodiscard]] std::size_t outstanding() const { return pending_.size() - head_; }

private:
    std::vector<FilterRunner::Verdict> pending_;
    std::size_t head_ = 0;
};

/// Reader-side interface used by capture application threads, and the
/// state the three capture stacks share: the attached filter, the FIFO
/// plan->commit verdict handoff and the one CaptureStats every packet
/// fate is counted in.  A stack's plan() calls plan_verdict(), its
/// commit() calls commit_verdict() and then either stores the packet or
/// calls count_buffer_drop(); its fetch() calls count_delivered().
class StackEndpoint {
public:
    struct Batch {
        std::vector<net::PacketPtr> packets;
        std::uint64_t bytes = 0;        // captured bytes (after snaplen)
        hostsim::Work fetch_work;       // syscall + copy cost to charge
    };

    virtual ~StackEndpoint() = default;

    /// Non-blocking read of up to `max_packets`.  std::nullopt means "no
    /// data yet" — the reader should block; it is woken via its thread.
    virtual std::optional<Batch> fetch(std::size_t max_packets) = 0;

    /// Registers the application thread to wake when data arrives.
    virtual void set_reader(hostsim::Thread* reader) = 0;

    /// Installs a BPF filter through the FilterRunner attach gate.
    void install_filter(bpf::Program program);

    [[nodiscard]] const CaptureStats& stats() const { return stats_; }

    /// Kernel-side capture-buffer fill level, in stack-native units
    /// (BPF: stored bytes across both halves, mmap: occupied frames,
    /// PF_PACKET: queued skb truesize bytes).  A gauge for the interval
    /// time-series sampler; compare against buffer_capacity().
    [[nodiscard]] virtual std::uint64_t buffer_occupancy() const = 0;
    /// The capacity `buffer_occupancy()` saturates at, in the same units.
    [[nodiscard]] virtual std::uint64_t buffer_capacity() const = 0;

    /// Hands a consumed batch's packet vector back for reuse: the next
    /// fetch() builds its batch in it, capacity intact, so steady-state
    /// fetch loops allocate nothing.
    void recycle(std::vector<net::PacketPtr> packets) {
        packets.clear();
        spare_packets_ = std::move(packets);
    }

    /// Installs packet-lifecycle hooks (may be null; every use inside the
    /// stacks is branch-guarded so untraced runs stay zero-cost).
    void set_observer(obs::AppObserver* obs) { app_obs_ = obs; }

protected:
    [[nodiscard]] obs::AppObserver* app_obs() const { return app_obs_; }

    /// plan(): counts the packet as seen, runs the filter and queues the
    /// verdict for the matching commit().
    FilterRunner::Verdict plan_verdict(const net::Packet& packet, std::uint32_t snaplen) {
        ++stats_.kernel_seen;
        const FilterRunner::Verdict verdict = filter_.run(packet, snaplen);
        pending_.push(verdict);
        return verdict;
    }

    /// commit(): pops the planned verdict and counts it as a filter
    /// reject (and abort) or an accept.
    FilterRunner::Verdict commit_verdict();

    /// An accepted packet found no room in the capture buffer.
    void count_buffer_drop() { ++stats_.dropped_buffer; }

    /// The fanout group routed the packet to another tap.
    void count_fanout_skip() { ++stats_.fanout_skipped; }

    /// fetch() handed `packets` packets of `bytes` captured bytes over.
    void count_delivered(std::size_t packets, std::uint64_t bytes) {
        stats_.delivered += packets;
        stats_.delivered_bytes += bytes;
    }

    /// The pooled vector from the last recycle() (empty, capacity kept);
    /// an empty fresh vector if none was returned yet.
    [[nodiscard]] std::vector<net::PacketPtr> take_spare() { return std::move(spare_packets_); }

private:
    FilterRunner filter_;
    PendingVerdicts pending_;
    CaptureStats stats_;
    std::vector<net::PacketPtr> spare_packets_;
    obs::AppObserver* app_obs_ = nullptr;
};

}  // namespace capbench::capture
