// Capture-to-disk writer pipeline (exact-capture style).
//
// exact-capture splits the hot listener thread from a cold writer thread,
// joined by a fixed-size lock-free "bring" ring: the listener only stamps a
// record descriptor and pushes it; the writer drains descriptors in batches
// and pays the syscall + per-byte cost.  We mirror that split inside the
// host simulation: the capture application offers arena-backed `RecordRef`s
// (a PacketPtr keeps the payload alive — no byte staging) into a `BringRing`
// and a `DiskWriterThread` drains them, charges `DiskModel::write_work` off
// the capture thread, blocks on disk back-pressure, and optionally streams
// each record through the zero-copy `pcap::FileWriter` path.
//
// When the ring is full, the configured `SpillPolicy` decides: `kBlock`
// back-pressures the capture thread (offer() returns false, the producer
// blocks and is woken when a slot frees), `kDropNewest`/`kDropOldest` spill
// a record and count it — those spills feed the `disk_spill` drop bucket so
// `delivered + Σdrops == generated` stays an exact identity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capbench/hostsim/machine.hpp"
#include "capbench/load/disk.hpp"
#include "capbench/net/packet.hpp"
#include "capbench/sim/time.hpp"

namespace capbench::capture {
struct OsSpec;
}
namespace capbench::obs {
class AppObserver;
}
namespace capbench::pcap {
class FileWriter;
}

namespace capbench::load {

enum class SpillPolicy : std::uint8_t {
    kBlock,       // back-pressure the capture thread (lossless)
    kDropNewest,  // spill the incoming record
    kDropOldest,  // evict the oldest queued record, keep the incoming one
};

[[nodiscard]] const char* to_string(SpillPolicy policy);

struct DiskWriterConfig {
    bool enabled = false;        // off = classic inline write on the app thread
    std::size_t ring_slots = 256;
    SpillPolicy spill = SpillPolicy::kBlock;
};

/// One pcap record staged for the writer thread: the arena-backed packet
/// (the PacketPtr keeps the payload alive across the hand-off) plus its
/// capture metadata.  No payload bytes are copied until the writer emits
/// the record.
struct RecordRef {
    net::PacketPtr packet;
    std::uint32_t caplen = 0;      // pcap capture length
    std::uint32_t disk_bytes = 0;  // bytes charged against the disk model
    sim::SimTime timestamp{};
};

/// Fixed-size single-producer/single-consumer record ring (the "bring").
/// Slots are allocated once; push/pop move RecordRefs in and out, so the
/// steady state performs no allocation.
class BringRing {
public:
    explicit BringRing(std::size_t slots);

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] bool full() const { return size_ == slots_.size(); }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] std::size_t slots() const { return slots_.size(); }

    /// Precondition: !full().
    void push(RecordRef rec);

    /// Precondition: !empty().
    RecordRef pop();

private:
    std::vector<RecordRef> slots_;
    std::size_t head_ = 0;  // consumer index
    std::size_t size_ = 0;
};

/// The cold writer thread.  Spawn it on the SUT's machine before the first
/// offer(); one instance serves exactly one producer thread.
class DiskWriterThread final : public hostsim::Thread {
public:
    DiskWriterThread(std::string name, const capture::OsSpec& os, DiskModel& disk,
                     DiskWriterConfig config);

    /// Producer side.  Returns true when the record was enqueued (or
    /// resolved by a drop policy); returns false only under
    /// SpillPolicy::kBlock with a full ring — the producer must block()
    /// and retry the same record when woken.  On success `rec` is
    /// consumed (moved from); on false it is left intact.
    bool offer(RecordRef& rec, hostsim::Thread& producer);

    /// Optional pcap sink: each drained record is emitted through the
    /// zero-copy FileWriter path, in hand-off order.
    void set_sink(pcap::FileWriter* sink) { sink_ = sink; }

    /// Optional obs hooks (spill counter, ring-occupancy trace counter).
    void set_observer(obs::AppObserver* obs) { obs_ = obs; }

    void main() override;

    [[nodiscard]] const DiskWriterConfig& config() const { return config_; }
    [[nodiscard]] std::size_t ring_occupancy() const { return ring_.size(); }
    [[nodiscard]] std::size_t max_ring_occupancy() const { return max_occupancy_; }
    /// Records accepted into the ring so far.
    [[nodiscard]] std::uint64_t enqueued() const { return enqueued_; }
    /// Records rejected by a drop spill policy (the `disk_spill` bucket).
    [[nodiscard]] std::uint64_t spilled() const { return spilled_; }
    /// Records fully retired (disk charged, sink written).
    [[nodiscard]] std::uint64_t records_written() const { return records_written_; }
    [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }

private:
    void drain_loop();
    void submit(std::uint64_t bytes);
    void flush_batch();

    BringRing ring_;
    DiskWriterConfig config_;
    const capture::OsSpec* os_;
    DiskModel* disk_;
    pcap::FileWriter* sink_ = nullptr;
    obs::AppObserver* obs_ = nullptr;
    hostsim::Thread* blocked_producer_ = nullptr;
    bool waiting_for_ring_ = false;  // writer blocked on an empty ring
    std::vector<RecordRef> batch_;   // pooled drain batch
    std::size_t max_occupancy_ = 0;
    std::uint64_t enqueued_ = 0;
    std::uint64_t spilled_ = 0;
    std::uint64_t records_written_ = 0;
    std::uint64_t bytes_written_ = 0;
};

}  // namespace capbench::load
