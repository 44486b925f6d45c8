#include "capbench/hostsim/machine.hpp"

#include <algorithm>
#include <stdexcept>

#include "capbench/obs/registry.hpp"
#include "capbench/obs/trace.hpp"

namespace capbench::hostsim {

void Thread::exec(const Work& work, CpuState st, Continuation then) {
    machine_->thread_exec(*this, work, st, std::move(then));
}

void Thread::block(Continuation on_wake) {
    machine_->thread_block(*this, std::move(on_wake));
}

void Thread::yield(Continuation then) {
    machine_->thread_yield(*this, std::move(then));
}

Machine::Machine(sim::Simulator& sim, MachineSpec spec, SchedPolicy policy)
    : sim_(&sim), spec_(std::move(spec)), policy_(policy) {
    if (spec_.cores < 1) throw std::invalid_argument("Machine: cores must be >= 1");
    if (spec_.hyperthreading && !spec_.arch.ht_capable)
        throw std::invalid_argument("Machine: architecture is not Hyperthreading-capable");
    const int logical = spec_.hyperthreading ? spec_.cores * 2 : spec_.cores;
    cpus_.resize(static_cast<std::size_t>(logical));
    chunks_.resize(static_cast<std::size_t>(logical));
    kernel_done_.resize(static_cast<std::size_t>(logical));
    kernel_queue_len_cpu_.resize(static_cast<std::size_t>(logical), 0);
}

// ---- CPU state inspection ----------------------------------------------------

bool Machine::cpu_busy(int i) const {
    const auto& cpu = cpus_[static_cast<std::size_t>(i)];
    return cpu.current != nullptr || cpu.kernel_busy_until > sim_->now();
}

bool Machine::any_other_cpu_busy(int i) const {
    for (int c = 0; c < logical_cpus(); ++c) {
        if (c != i && cpu_busy(c)) return true;
    }
    return false;
}

bool Machine::sibling_busy(int i) const {
    if (!spec_.hyperthreading) return false;
    const int sibling = i ^ 1;
    return sibling < logical_cpus() && cpu_busy(sibling);
}

int Machine::pick_idle_cpu() const {
    int best = -1;
    int best_score = 1 << 30;
    // Under heavy interrupt load a CPU servicing an IRQ line makes no
    // thread progress; a real scheduler migrates tasks away from a
    // saturated CPU, so skip any CPU whose kernel queue runs deep (unless
    // it is the only CPU).  With a single-queue NIC only CPU 0 can ever be
    // saturated, which reduces this to the classic "avoid CPU 0" rule.
    const bool skip_saturated = logical_cpus() > 1;
    for (int c = 0; c < logical_cpus(); ++c) {
        if (skip_saturated && kernel_backlog(c) > sim::microseconds(30)) continue;
        if (cpus_[static_cast<std::size_t>(c)].current != nullptr) continue;
        // Prefer CPUs away from the interrupt CPU and with an idle sibling.
        int score = 0;
        if (c == 0 && logical_cpus() > 1) score += 4;
        if (cpus_[static_cast<std::size_t>(c)].kernel_busy_until > sim_->now()) score += 2;
        if (sibling_busy(c)) score += 1;
        if (score < best_score) {
            best_score = score;
            best = c;
        }
    }
    return best;
}

sim::Duration Machine::work_duration(const Work& work, int cpu_index) const {
    const double ns =
        work_duration_ns(spec_.arch, work, any_other_cpu_busy(cpu_index), sibling_busy(cpu_index));
    return sim::Duration{static_cast<std::int64_t>(ns + 0.5)};
}

// ---- observability ------------------------------------------------------------

void Machine::set_trace(obs::TraceSink* trace, int pid) {
    trace_ = trace;
    trace_pid_ = pid;
    if (trace_ == nullptr) return;
    next_trace_tid_ = obs::kThreadTidBase;
    kernel_lane_named_.assign(cpus_.size(), false);
    trace_kernel_name_ = trace_->intern("kernel");
    trace_blocked_name_ = trace_->intern("blocked");
    cat_user_ = trace_->intern("user");
    cat_system_ = trace_->intern("system");
    cat_interrupt_ = trace_->intern("interrupt");
}

void Machine::register_metrics(obs::Registry& registry, const std::string& prefix) {
    ctr_dispatches_ = &registry.counter(prefix + ".sched.dispatches");
    ctr_yields_ = &registry.counter(prefix + ".sched.yields");
    ctr_wakeups_ = &registry.counter(prefix + ".sched.wakeups");
    ctr_migrations_ = &registry.counter(prefix + ".sched.migrations");
    ctr_kernel_items_ = &registry.counter(prefix + ".sched.kernel_items");
}

const char* Machine::state_cat(CpuState st) const {
    switch (st) {
        case CpuState::kUser: return cat_user_;
        case CpuState::kSystem: return cat_system_;
        default: return cat_interrupt_;
    }
}

void Machine::trace_chunk_slice(const Thread& thread, const RunningChunk& chunk) {
    // The slice covers the chunk's own busy time; kernel preemption shows
    // up as overlapping slices on the kernel lane, not as thread time.
    trace_->complete(trace_pid_, thread.trace_tid_, thread.trace_name_,
                     state_cat(chunk.state), chunk.end - chunk.busy, chunk.end);
}

// ---- kernel work --------------------------------------------------------------

void Machine::post_kernel_work_on(int cpu_index, const Work& work, CpuState kind,
                                  Continuation done) {
    if (cpu_index < 0 || cpu_index >= logical_cpus())
        throw std::invalid_argument("Machine::post_kernel_work_on: cpu out of range");
    if (cpu_index != 0) kernel_spread_ = true;
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    const sim::Duration dur = work_duration(work, cpu_index);
    const sim::SimTime start = std::max(sim_->now(), cpu.kernel_busy_until);
    const sim::SimTime end = start + dur;
    cpu.kernel_busy_until = end;
    ++kernel_queue_len_;
    ++kernel_queue_len_cpu_[static_cast<std::size_t>(cpu_index)];
    // Each CPU serializes its kernel work, so completion times are
    // non-decreasing per CPU and events at equal times run in push order:
    // completions are strictly FIFO per CPU.  Parking (dur, kind, done) in
    // the ring keeps the scheduled callback capture-tiny.
    kernel_done_[static_cast<std::size_t>(cpu_index)].push_back(
        KernelDone{dur, kind, std::move(done)});
    sim_->schedule_at(end, [this, cpu_index] { kernel_work_complete(cpu_index); });
    if (ctr_kernel_items_) ctr_kernel_items_->inc();

    // Kernel work preempts the thread chunk in flight on this CPU: push
    // its completion out by the stolen time.  A chunk starved for too long
    // is migrated to the ready queue instead (the load balancer pulling a
    // task off a saturated CPU).
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    if (chunk.active) {
        chunk.stolen += dur;
        if (logical_cpus() > 1 && chunk.stolen > sim::milliseconds(2)) {
            migrate_chunk(cpu_index);
        } else {
            chunk.event.cancel();
            chunk.end = chunk.end + dur;
            chunk.event =
                sim_->schedule_at(chunk.end, [this, cpu_index] { chunk_complete(cpu_index); });
        }
    }
}

void Machine::kernel_work_complete(int cpu_index) {
    auto& fifo = kernel_done_[static_cast<std::size_t>(cpu_index)];
    KernelDone item = std::move(fifo.front());
    fifo.pop_front();
    cpus_[static_cast<std::size_t>(cpu_index)].account(item.kind, item.dur);
    --kernel_queue_len_;
    --kernel_queue_len_cpu_[static_cast<std::size_t>(cpu_index)];
    if (trace_ && item.dur > sim::Duration::zero()) {
        // Each CPU serializes its kernel work, so [now-dur, now) slices
        // tile that CPU's kernel lane without overlap.
        const int tid = obs::kKernelTid + cpu_index;
        if (cpu_index != 0 && !kernel_lane_named_[static_cast<std::size_t>(cpu_index)]) {
            kernel_lane_named_[static_cast<std::size_t>(cpu_index)] = true;
            trace_->set_thread_name(trace_pid_, tid,
                                    "kernel/cpu" + std::to_string(cpu_index));
        }
        trace_->complete(trace_pid_, tid, trace_kernel_name_, state_cat(item.kind),
                         sim_->now() - item.dur, sim_->now());
    }
    if (item.done) item.done();
    // IRQ affinity can saturate several CPUs at once; a thread parked
    // ready while every CPU ran deep kernel queues has no other wake
    // signal than a queue draining, so retry dispatch here.  Guarded by
    // kernel_spread_: with every IRQ on CPU 0 this retry can never
    // succeed where the existing dispatch points would not, and skipping
    // it keeps the single-queue schedule untouched.
    if (kernel_spread_ && !ready_.empty()) try_dispatch();
}

sim::Duration Machine::kernel_backlog(int cpu_index) const {
    const auto until = cpus_[static_cast<std::size_t>(cpu_index)].kernel_busy_until;
    return until > sim_->now() ? until - sim_->now() : sim::Duration::zero();
}

// ---- scheduling ----------------------------------------------------------------

void Machine::spawn(std::shared_ptr<Thread> thread) {
    if (thread->machine_ != nullptr) throw std::logic_error("Machine::spawn: thread reused");
    thread->machine_ = this;
    Thread* raw = thread.get();
    threads_.push_back(std::move(thread));
    if (trace_ != nullptr) {
        raw->trace_tid_ = next_trace_tid_++;
        raw->trace_name_ = trace_->intern(raw->name());
        trace_->set_thread_name(trace_pid_, raw->trace_tid_, raw->name());
    }
    raw->state_ = Thread::State::kReady;
    raw->resume_ = [raw] { raw->main(); };
    enqueue_ready(*raw, /*woken=*/false);
    try_dispatch();
}

void Machine::wake(Thread& thread) {
    if (thread.state_ != Thread::State::kBlocked || thread.wake_pending_) return;
    thread.wake_pending_ = true;
    sim_->schedule_in(policy_.wakeup_latency, [this, &thread] {
        thread.wake_pending_ = false;
        if (thread.state_ != Thread::State::kBlocked) return;
        thread.state_ = Thread::State::kReady;
        if (ctr_wakeups_) ctr_wakeups_->inc();
        enqueue_ready(thread, /*woken=*/true);
        try_dispatch();
    });
}

void Machine::wake_now(Thread& thread) {
    if (thread.state_ != Thread::State::kBlocked) return;
    thread.state_ = Thread::State::kReady;
    if (ctr_wakeups_) ctr_wakeups_->inc();
    enqueue_ready(thread, /*woken=*/true);
    try_dispatch();
}

void Machine::enqueue_ready(Thread& thread, bool woken) {
    if (woken && policy_.lifo_wakeup)
        ready_.push_front(&thread);
    else
        ready_.push_back(&thread);
}

void Machine::try_dispatch() {
    while (!ready_.empty()) {
        const int cpu_index = pick_idle_cpu();
        if (cpu_index < 0) return;
        Thread* thread = ready_.front();
        ready_.pop_front();
        thread->state_ = Thread::State::kRunning;
        thread->cpu_ = cpu_index;
        cpus_[static_cast<std::size_t>(cpu_index)].current = thread;
        if (ctr_dispatches_) ctr_dispatches_->inc();
        if (trace_ && thread->blocked_since_ >= 0) {
            trace_->complete(trace_pid_, thread->trace_tid_, trace_blocked_name_,
                             trace_blocked_name_, sim::SimTime{thread->blocked_since_},
                             sim_->now());
        }
        thread->blocked_since_ = -1;
        run_continuation(*thread, std::move(thread->resume_));
    }
}

void Machine::run_continuation(Thread& thread, Continuation body) {
    thread.action_taken_ = false;
    body();
    if (!thread.action_taken_) {
        // Continuation ended without exec/block/yield: thread is done.
        thread.state_ = Thread::State::kDone;
        release_cpu(thread);
        try_dispatch();
    }
}

void Machine::release_cpu(Thread& thread) {
    if (thread.cpu_ >= 0) {
        cpus_[static_cast<std::size_t>(thread.cpu_)].current = nullptr;
        thread.cpu_ = -1;
    }
}

void Machine::thread_exec(Thread& thread, const Work& work, CpuState st, Continuation then) {
    if (thread.state_ != Thread::State::kRunning)
        throw std::logic_error("Thread::exec outside running state");
    thread.action_taken_ = true;
    const int cpu_index = thread.cpu_;
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    if (chunk.active) throw std::logic_error("Thread::exec: chunk already in flight");

    const sim::Duration dur = work_duration(work, cpu_index);
    // Pending kernel work on this CPU runs first (it has priority).
    const sim::Duration head_of_line =
        cpu.kernel_busy_until > sim_->now() ? cpu.kernel_busy_until - sim_->now()
                                            : sim::Duration::zero();
    chunk.active = true;
    chunk.busy = dur;
    chunk.stolen = sim::Duration::zero();
    chunk.state = st;
    chunk.work = work;
    chunk.then = std::move(then);
    chunk.end = sim_->now() + head_of_line + dur;
    chunk.event = sim_->schedule_at(chunk.end, [this, cpu_index] { chunk_complete(cpu_index); });
}

void Machine::chunk_complete(int cpu_index) {
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    Thread* thread = cpu.current;
    if (!chunk.active || thread == nullptr)
        throw std::logic_error("Machine::chunk_complete: no chunk in flight");
    if (sim_->now() != chunk.end)
        throw std::logic_error("Machine::chunk_complete: completion time mismatch");
    chunk.active = false;
    cpu.account(chunk.state, chunk.busy);
    if (trace_) trace_chunk_slice(*thread, chunk);
    run_continuation(*thread, std::move(chunk.then));
}

void Machine::migrate_chunk(int cpu_index) {
    auto& chunk = chunks_[static_cast<std::size_t>(cpu_index)];
    auto& cpu = cpus_[static_cast<std::size_t>(cpu_index)];
    Thread* thread = cpu.current;
    if (!chunk.active || thread == nullptr)
        throw std::logic_error("Machine::migrate_chunk: no chunk in flight");
    chunk.event.cancel();
    chunk.active = false;
    if (ctr_migrations_) ctr_migrations_->inc();
    // Re-execute the chunk's work when re-dispatched (progress made in the
    // interrupt gaps is conservatively discarded).
    thread->migrated_work_ = chunk.work;
    thread->migrated_state_ = chunk.state;
    thread->migrated_then_ = std::move(chunk.then);
    thread->resume_ = [this, thread] {
        thread_exec(*thread, thread->migrated_work_, thread->migrated_state_,
                    std::move(thread->migrated_then_));
    };
    chunk.then = nullptr;
    thread->state_ = Thread::State::kReady;
    release_cpu(*thread);
    ready_.push_back(thread);
    sim_->schedule_in(sim::Duration::zero(), [this] { try_dispatch(); });
}

void Machine::thread_block(Thread& thread, Continuation on_wake) {
    if (thread.state_ != Thread::State::kRunning)
        throw std::logic_error("Thread::block outside running state");
    thread.action_taken_ = true;
    thread.state_ = Thread::State::kBlocked;
    thread.blocked_since_ = sim_->now().ns();
    thread.resume_ = std::move(on_wake);
    release_cpu(thread);
    // Give other ready threads the CPU we just freed.  Dispatch from a
    // fresh event to keep the current continuation's stack shallow.
    sim_->schedule_in(sim::Duration::zero(), [this] { try_dispatch(); });
}

void Machine::thread_yield(Thread& thread, Continuation then) {
    if (thread.state_ != Thread::State::kRunning)
        throw std::logic_error("Thread::yield outside running state");
    thread.action_taken_ = true;
    thread.state_ = Thread::State::kReady;
    thread.resume_ = std::move(then);
    if (ctr_yields_) ctr_yields_->inc();
    release_cpu(thread);
    if (policy_.lifo_yield)
        ready_.push_front(&thread);
    else
        ready_.push_back(&thread);
    sim_->schedule_in(sim::Duration::zero(), [this] { try_dispatch(); });
}

// ---- accounting ---------------------------------------------------------------

sim::Duration Machine::total_busy() const {
    sim::Duration sum{};
    for (const auto& cpu : cpus_) sum += cpu.busy();
    return sum;
}

double Machine::utilization_since(sim::Duration busy_at_start, sim::Duration window) const {
    if (window <= sim::Duration::zero()) return 0.0;
    const auto busy = total_busy() - busy_at_start;
    return std::min(1.0, busy.seconds() / (window.seconds() * logical_cpus()));
}

}  // namespace capbench::hostsim
