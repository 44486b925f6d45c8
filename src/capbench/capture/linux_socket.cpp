#include "capbench/capture/linux_socket.hpp"

#include <algorithm>

#include "capbench/obs/observer.hpp"

namespace capbench::capture {

LinuxPacketSocket::LinuxPacketSocket(hostsim::Machine& machine, const OsSpec& os,
                                     std::uint64_t rmem_bytes, std::uint32_t snaplen,
                                     SkbPool* pool)
    : machine_(&machine), os_(&os), rmem_bytes_(rmem_bytes), snaplen_(snaplen), pool_(pool) {}

std::uint64_t LinuxPacketSocket::truesize(std::uint32_t frame_len) const {
    if (os_->skb_truesize_slab == 0) return frame_len;
    const std::uint64_t slab = os_->skb_truesize_slab;
    const std::uint64_t data = (frame_len + slab - 1) / slab * slab;
    return data + os_->skb_overhead;
}

hostsim::Work LinuxPacketSocket::plan(const net::PacketPtr& packet) {
    const auto verdict = plan_verdict(*packet, snaplen_);
    hostsim::Work work = os_->tap_per_packet;  // skb_clone + queue insert
    work.cycles += verdict.insns * os_->filter_cycles_per_insn;
    return work.scaled(os_->kernel_cost_multiplier);
}

void LinuxPacketSocket::commit(const net::PacketPtr& packet) {
    const auto verdict = commit_verdict();
    if (!verdict.accept) return;
    const std::uint64_t ts = truesize(packet->frame_len());
    if (queued_truesize_ + ts > rmem_bytes_ ||
        (pool_ != nullptr && pool_->used + ts > pool_->limit)) {
        // sk_rmem (or the shared skb pool) exhausted: drop for this socket.
        count_buffer_drop();
        return;
    }
    queue_.push_back(Queued{packet, verdict.caplen, ts});
    queued_truesize_ += ts;
    if (pool_ != nullptr) pool_->used += ts;
    if (obs::AppObserver* o = app_obs())
        o->enqueued(packet->id(), machine_->sim().now(),
                    static_cast<std::int64_t>(queued_truesize_));
    if (reader_ != nullptr) machine_->wake(*reader_);
}

std::optional<StackEndpoint::Batch> LinuxPacketSocket::fetch(std::size_t max_packets) {
    if (queue_.empty()) return std::nullopt;
    Batch batch;
    const std::size_t n = std::min(max_packets, queue_.size());
    batch.packets = take_spare();
    batch.packets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Queued& q = queue_.front();
        batch.packets.push_back(std::move(q.packet));
        batch.bytes += q.caplen;
        queued_truesize_ -= q.truesize;
        if (pool_ != nullptr) pool_->used -= q.truesize;
        // Every packet costs one recvfrom(): syscall + copy_to_user.
        batch.fetch_work += os_->syscall_overhead;
        batch.fetch_work += os_->deliver_per_packet;
        batch.fetch_work.copy_bytes += q.caplen;
        queue_.pop_front();
    }
    count_delivered(n, batch.bytes);
    if (obs::AppObserver* o = app_obs()) {
        const sim::SimTime now = machine_->sim().now();
        for (const net::PacketPtr& p : batch.packets) o->delivered(p->id(), now);
        o->fetched(n, static_cast<std::int64_t>(queued_truesize_), now);
    }
    return batch;
}

}  // namespace capbench::capture
