//! A deterministic discrete-event engine.
//!
//! The simulator models one training step as a **task graph**: every
//! compute phase and every tensor transfer is a task with a fixed duration,
//! a set of dependencies, and an exclusive resource (an accelerator's
//! processing unit, or one level's group-pair link).  The engine executes
//! the graph event-by-event: a task becomes *ready* when its last
//! dependency finishes, waits in its resource's queue, runs when the
//! resource frees up, and releases its dependents on completion.
//!
//! Scheduling is deterministic: events are ordered by `(time, kind, task
//! index)` with finishes before readies at equal times, queued tasks by
//! ready time then insertion order, and a finishing task releases its
//! dependents in ascending index order.
//!
//! Building and running a graph does no per-task heap allocation.  A task
//! owns no `Vec`: [`Engine::add_task`] drains the spec's dependency
//! iterator into one flat edge list, dropping a dependency listed twice by
//! stamping the dependency with the id of the task that listed it last.
//! [`Engine::run`] turns the edge list into a CSR (compressed sparse row)
//! dependents array — one flat `Vec` of dependents plus per-task offsets —
//! and the [`Schedule`] takes the resource names and task labels by move.
//! Labels are optional and only needed for [`Schedule::chrome_trace`], so
//! a caller that does not trace builds none.  Each heap entry packs its
//! `(time, kind, task index)` into one `u128`, so an event comparison is
//! one integer comparison.
//!
//! # Examples
//!
//! ```
//! use hypar_sim::des::{Engine, TaskSpec};
//! use hypar_tensor::Seconds;
//!
//! let mut engine = Engine::new();
//! let cpu = engine.add_resource("cpu");
//! let a = engine.add_task(TaskSpec::new(cpu, Seconds(1.0)));
//! let b = engine.add_task(TaskSpec::new(cpu, Seconds(2.0)).after(a));
//! let schedule = engine.run();
//! assert_eq!(schedule.finish_time(b).value(), 3.0);
//! assert_eq!(schedule.makespan().value(), 3.0);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::{Chain, Empty, Once};

use hypar_tensor::Seconds;

/// Identifier of a task within one [`Engine`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(usize);

/// Identifier of an exclusive resource within one [`Engine`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(usize);

/// Specification of one task: its resource, duration, and dependencies.
///
/// The dependencies are an iterator that [`Engine::add_task`] drains
/// straight into the engine's edge list, so a spec allocates nothing.
#[derive(Clone, Debug)]
pub struct TaskSpec<D = Empty<TaskId>> {
    resource: ResourceId,
    duration: Seconds,
    deps: D,
    label: Option<String>,
}

impl TaskSpec {
    /// A task of the given duration on the given resource with no
    /// dependencies.
    #[must_use]
    pub fn new(resource: ResourceId, duration: Seconds) -> Self {
        Self {
            resource,
            duration,
            deps: std::iter::empty(),
            label: None,
        }
    }
}

impl<D: Iterator<Item = TaskId>> TaskSpec<D> {
    /// Names the task for trace export ([`Schedule::chrome_trace`]).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Adds a dependency: this task cannot start before `dep` finishes.
    #[must_use]
    pub fn after(self, dep: TaskId) -> TaskSpec<Chain<D, Once<TaskId>>> {
        self.after_all(std::iter::once(dep))
    }

    /// Adds several dependencies at once.
    #[must_use]
    pub fn after_all<I: IntoIterator<Item = TaskId>>(
        self,
        deps: I,
    ) -> TaskSpec<Chain<D, I::IntoIter>> {
        TaskSpec {
            resource: self.resource,
            duration: self.duration,
            deps: self.deps.chain(deps),
            label: self.label,
        }
    }
}

#[derive(Clone, Debug)]
struct Task {
    resource: usize,
    duration: f64,
    /// Dependencies that have not finished yet.
    pending_deps: usize,
    /// The last task that listed this one as a dependency, so a repeated
    /// listing is dropped without sorting.
    listed_by: usize,
}

#[derive(Clone, Debug)]
struct Resource {
    name: String,
    busy_total: f64,
}

/// A heap key that orders exactly like the tuple `(time, kind, task
/// index)`.
///
/// Event times are finite and non-negative: durations are, the clock
/// starts at `+0.0`, and adding a duration (even `-0.0`) to a non-negative
/// time never gives `-0.0`.  The IEEE-754 bits of such an `f64` order like its
/// value, so with the time's bits in the high word, the kind in bit 63 and
/// the task index (always below 2^63) under it, one `u128` comparison
/// replaces a float comparison and two tie breaks.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

/// Event kinds, in their tie-break order at equal times: finishes before
/// readies, so freed resources pick up work deterministically.
const FINISH: u8 = 0;
const READY: u8 = 1;

impl Key {
    const KIND_BIT: u32 = 63;

    fn new(time: f64, kind: u8, task: usize) -> Self {
        Self(
            (u128::from(time.to_bits()) << 64)
                | (u128::from(kind) << Self::KIND_BIT)
                | task as u128,
        )
    }

    fn time(self) -> f64 {
        f64::from_bits((self.0 >> 64) as u64)
    }

    fn kind(self) -> u8 {
        (self.0 >> Self::KIND_BIT) as u8 & 1
    }

    fn task(self) -> usize {
        (self.0 as u64 & !(1 << Self::KIND_BIT)) as usize
    }
}

type Events = BinaryHeap<Reverse<Key>>;

/// One resource's run state during [`Engine::run`].
#[derive(Clone, Debug, Default)]
struct Lane {
    running: bool,
    /// Ready tasks waiting for this resource, keyed by (ready time, task
    /// index).
    queue: BinaryHeap<Reverse<Key>>,
}

/// The deterministic discrete-event engine.
///
/// Build the graph with [`Engine::add_resource`] and [`Engine::add_task`],
/// then call [`Engine::run`].
#[derive(Debug)]
pub struct Engine {
    tasks: Vec<Task>,
    /// Every distinct dependency as `(dependency, dependent)`, in the
    /// order the dependents were added.
    edges: Vec<(usize, usize)>,
    /// `(task index, label)` of every labeled task, in index order.
    labels: Vec<(usize, String)>,
    resources: Vec<Resource>,
}

impl Engine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tasks: Vec::new(),
            edges: Vec::new(),
            labels: Vec::new(),
            resources: Vec::new(),
        }
    }

    /// Registers an exclusive resource.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(Resource {
            name: name.into(),
            busy_total: 0.0,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Registers a task.
    ///
    /// # Panics
    ///
    /// Panics if the spec references an unknown resource or task, or if the
    /// duration is negative or non-finite.
    pub fn add_task<D: Iterator<Item = TaskId>>(&mut self, spec: TaskSpec<D>) -> TaskId {
        assert!(spec.resource.0 < self.resources.len(), "unknown resource");
        assert!(
            spec.duration.value() >= 0.0 && spec.duration.value().is_finite(),
            "task duration must be finite and non-negative"
        );
        let id = self.tasks.len();
        let mut pending = 0;
        for dep in spec.deps {
            assert!(dep.0 < id, "dependencies must be previously added tasks");
            // A task listed twice as a dependency is counted once.
            let task = &mut self.tasks[dep.0];
            if task.listed_by != id {
                task.listed_by = id;
                self.edges.push((dep.0, id));
                pending += 1;
            }
        }
        self.tasks.push(Task {
            resource: spec.resource.0,
            duration: spec.duration.value(),
            pending_deps: pending,
            listed_by: usize::MAX,
        });
        if let Some(label) = spec.label {
            self.labels.push((id, label));
        }
        TaskId(id)
    }

    /// Number of resources added so far.
    #[must_use]
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Executes the graph to completion and returns the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the dependency graph is cyclic (impossible through the
    /// public API, which only allows backward references).
    #[must_use]
    pub fn run(mut self) -> Schedule {
        let n = self.tasks.len();
        let (offsets, dependents) = self.dependents();
        let mut start = vec![0.0f64; n];
        let mut finish = vec![0.0f64; n];
        let mut lanes = vec![Lane::default(); self.resources.len()];
        let mut events = Events::new();

        for (i, task) in self.tasks.iter().enumerate() {
            if task.pending_deps == 0 {
                events.push(Reverse(Key::new(0.0, READY, i)));
            }
        }

        let mut completed = 0usize;
        while let Some(Reverse(event)) = events.pop() {
            let (now, idx) = (event.time(), event.task());
            let resource = self.tasks[idx].resource;
            if event.kind() == FINISH {
                completed += 1;
                lanes[resource].running = false;
                for &d in &dependents[offsets[idx]..offsets[idx + 1]] {
                    self.tasks[d].pending_deps -= 1;
                    if self.tasks[d].pending_deps == 0 {
                        events.push(Reverse(Key::new(now, READY, d)));
                    }
                }
                // Start the next queued task, if any.
                if let Some(Reverse(queued)) = lanes[resource].queue.pop() {
                    debug_assert!(queued.time() <= now);
                    let next = queued.task();
                    self.start_task(next, now, &mut lanes, &mut start, &mut finish, &mut events);
                }
            } else if lanes[resource].running {
                lanes[resource]
                    .queue
                    .push(Reverse(Key::new(now, READY, idx)));
            } else {
                self.start_task(idx, now, &mut lanes, &mut start, &mut finish, &mut events);
            }
        }

        assert_eq!(completed, n, "dependency graph did not complete (cycle?)");
        let makespan = finish.iter().copied().fold(0.0, f64::max);
        Schedule {
            start,
            finish,
            makespan,
            resources: self.resources,
            tasks: self.tasks,
            labels: self.labels,
        }
    }

    /// The CSR form of the edge list: task `i`'s dependents are
    /// `dependents[offsets[i]..offsets[i + 1]]`, in ascending index order.
    fn dependents(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.tasks.len();
        let mut offsets = vec![0usize; n + 1];
        for &(dep, _) in &self.edges {
            offsets[dep] += 1;
        }
        // Running sums put each bucket's end in `offsets[i]`; filling the
        // buckets back to front from the reversed edge list then leaves
        // its start there, with the dependents in insertion order.
        let mut end = 0;
        for offset in &mut offsets {
            end += *offset;
            *offset = end;
        }
        let mut dependents = vec![0usize; self.edges.len()];
        for &(dep, task) in self.edges.iter().rev() {
            offsets[dep] -= 1;
            dependents[offsets[dep]] = task;
        }
        (offsets, dependents)
    }

    fn start_task(
        &mut self,
        idx: usize,
        now: f64,
        lanes: &mut [Lane],
        start: &mut [f64],
        finish: &mut [f64],
        events: &mut Events,
    ) {
        let task = &self.tasks[idx];
        lanes[task.resource].running = true;
        start[idx] = now;
        finish[idx] = now + task.duration;
        self.resources[task.resource].busy_total += task.duration;
        events.push(Reverse(Key::new(now + task.duration, FINISH, idx)));
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// The result of executing a task graph.
#[derive(Clone, Debug)]
pub struct Schedule {
    start: Vec<f64>,
    finish: Vec<f64>,
    makespan: f64,
    resources: Vec<Resource>,
    tasks: Vec<Task>,
    labels: Vec<(usize, String)>,
}

impl Schedule {
    /// When the given task started.
    #[must_use]
    pub fn start_time(&self, task: TaskId) -> Seconds {
        Seconds(self.start[task.0])
    }

    /// When the given task finished.
    #[must_use]
    pub fn finish_time(&self, task: TaskId) -> Seconds {
        Seconds(self.finish[task.0])
    }

    /// Completion time of the whole graph.
    #[must_use]
    pub fn makespan(&self) -> Seconds {
        Seconds(self.makespan)
    }

    /// Total busy time of a resource (its utilization numerator).
    #[must_use]
    pub fn busy_time(&self, resource: ResourceId) -> Seconds {
        Seconds(self.resources[resource.0].busy_total)
    }

    /// Exports the schedule as a Chrome trace (the JSON consumed by
    /// `chrome://tracing` / Perfetto): one timeline row per resource, one
    /// slice per labeled task.  Unlabeled zero-duration tasks (barriers)
    /// are omitted.
    ///
    /// # Examples
    ///
    /// ```
    /// use hypar_sim::des::{Engine, TaskSpec};
    /// use hypar_tensor::Seconds;
    ///
    /// let mut engine = Engine::new();
    /// let cpu = engine.add_resource("accel0");
    /// engine.add_task(TaskSpec::new(cpu, Seconds(1.0)).label("fwd conv1"));
    /// let trace = engine.run().chrome_trace();
    /// assert!(trace.contains("fwd conv1"));
    /// assert!(trace.contains("accel0"));
    /// ```
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (tid, resource) in self.resources.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                resource.name
            ));
        }
        for &(i, ref label) in &self.labels {
            let start_us = self.start[i] * 1e6;
            let dur_us = (self.finish[i] - self.start[i]) * 1e6;
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{label}\",\"ph\":\"X\",\"ts\":{start_us:.3},\
                 \"dur\":{dur_us:.3},\"pid\":0,\"tid\":{}}}",
                self.tasks[i].resource
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_zero_makespan() {
        let engine = Engine::new();
        assert_eq!(engine.run().makespan().value(), 0.0);
    }

    #[test]
    fn independent_tasks_on_different_resources_run_in_parallel() {
        let mut engine = Engine::new();
        let r1 = engine.add_resource("a");
        let r2 = engine.add_resource("b");
        engine.add_task(TaskSpec::new(r1, Seconds(3.0)));
        engine.add_task(TaskSpec::new(r2, Seconds(2.0)));
        assert_eq!(engine.run().makespan().value(), 3.0);
    }

    #[test]
    fn same_resource_serializes() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let t1 = engine.add_task(TaskSpec::new(r, Seconds(3.0)));
        let t2 = engine.add_task(TaskSpec::new(r, Seconds(2.0)));
        let s = engine.run();
        assert_eq!(s.makespan().value(), 5.0);
        // Insertion order breaks the tie at t=0.
        assert_eq!(s.finish_time(t1).value(), 3.0);
        assert_eq!(s.finish_time(t2).value(), 5.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut engine = Engine::new();
        let r1 = engine.add_resource("a");
        let r2 = engine.add_resource("b");
        let t1 = engine.add_task(TaskSpec::new(r1, Seconds(4.0)));
        let t2 = engine.add_task(TaskSpec::new(r2, Seconds(1.0)).after(t1));
        let s = engine.run();
        assert_eq!(s.start_time(t2).value(), 4.0);
        assert_eq!(s.finish_time(t2).value(), 5.0);
    }

    #[test]
    fn diamond_joins_at_the_slowest_branch() {
        let mut engine = Engine::new();
        let r: Vec<_> = (0..4)
            .map(|i| engine.add_resource(format!("r{i}")))
            .collect();
        let head = engine.add_task(TaskSpec::new(r[0], Seconds(1.0)));
        let fast = engine.add_task(TaskSpec::new(r[1], Seconds(1.0)).after(head));
        let slow = engine.add_task(TaskSpec::new(r[2], Seconds(5.0)).after(head));
        let tail = engine.add_task(TaskSpec::new(r[3], Seconds(1.0)).after(fast).after(slow));
        let s = engine.run();
        assert_eq!(s.finish_time(tail).value(), 7.0);
    }

    #[test]
    fn queued_tasks_run_in_ready_order() {
        let mut engine = Engine::new();
        let producer = engine.add_resource("p");
        let shared = engine.add_resource("s");
        // t_early becomes ready at 1.0, t_late at 2.0; both queue on `shared`
        // behind a long task. The earlier-ready one must run first.
        let blocker = engine.add_task(TaskSpec::new(shared, Seconds(10.0)));
        let e1 = engine.add_task(TaskSpec::new(producer, Seconds(1.0)));
        let e2 = engine.add_task(TaskSpec::new(producer, Seconds(1.0)).after(e1));
        let late = engine.add_task(TaskSpec::new(shared, Seconds(1.0)).after(e2));
        let early = engine.add_task(TaskSpec::new(shared, Seconds(1.0)).after(e1));
        let s = engine.run();
        assert_eq!(s.finish_time(blocker).value(), 10.0);
        assert!(s.start_time(early) < s.start_time(late));
    }

    #[test]
    fn zero_duration_tasks_are_legal() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let t = engine.add_task(TaskSpec::new(r, Seconds(0.0)));
        let s = engine.run();
        assert_eq!(s.finish_time(t).value(), 0.0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        engine.add_task(TaskSpec::new(r, Seconds(1.5)));
        engine.add_task(TaskSpec::new(r, Seconds(2.5)));
        let s = engine.run();
        assert_eq!(s.busy_time(ResourceId(0)).value(), 4.0);
    }

    #[test]
    fn duplicate_dependencies_count_once() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let t1 = engine.add_task(TaskSpec::new(r, Seconds(1.0)));
        let t2 = engine.add_task(TaskSpec::new(r, Seconds(1.0)).after(t1).after(t1));
        let s = engine.run();
        assert_eq!(s.finish_time(t2).value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "previously added tasks")]
    fn forward_dependency_panics() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let _ = engine.add_task(TaskSpec::new(r, Seconds(1.0)).after(TaskId(5)));
    }

    #[test]
    fn large_chain_scales() {
        let mut engine = Engine::new();
        let r = engine.add_resource("a");
        let mut prev = engine.add_task(TaskSpec::new(r, Seconds(0.001)));
        for _ in 0..10_000 {
            prev = engine.add_task(TaskSpec::new(r, Seconds(0.001)).after(prev));
        }
        let s = engine.run();
        assert!((s.makespan().value() - 10.001).abs() < 1e-6);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random DAG: `(resource, duration, deps-as-bitmask-over-earlier-tasks)`.
        fn arb_graph() -> impl Strategy<Value = Vec<(usize, f64, u64)>> {
            proptest::collection::vec((0usize..4, 0.0f64..10.0, any::<u64>()), 1..40)
        }

        fn build(graph: &[(usize, f64, u64)]) -> (Engine, Vec<TaskId>) {
            let mut engine = Engine::new();
            let resources: Vec<_> = (0..4)
                .map(|i| engine.add_resource(format!("r{i}")))
                .collect();
            let mut ids: Vec<TaskId> = Vec::new();
            for (i, &(res, dur, mask)) in graph.iter().enumerate() {
                let deps: Vec<TaskId> = (0..i.min(64))
                    .filter(|&j| mask >> j & 1 == 1)
                    .map(|j| ids[j])
                    .collect();
                ids.push(
                    engine.add_task(TaskSpec::new(resources[res], Seconds(dur)).after_all(deps)),
                );
            }
            (engine, ids)
        }

        /// The graph of [`build`], with every dependency `j` listed
        /// `1 + repeats[j] % 3` times, last dependency first.
        fn build_repeated(graph: &[(usize, f64, u64)], repeats: &[u8]) -> Engine {
            let mut engine = Engine::new();
            let resources: Vec<_> = (0..4)
                .map(|i| engine.add_resource(format!("r{i}")))
                .collect();
            for (i, &(res, dur, mask)) in graph.iter().enumerate() {
                let deps = (0..i.min(64))
                    .rev()
                    .filter(|&j| mask >> j & 1 == 1)
                    .flat_map(|j| std::iter::repeat_n(TaskId(j), 1 + usize::from(repeats[j] % 3)));
                engine.add_task(TaskSpec::new(resources[res], Seconds(dur)).after_all(deps));
            }
            engine
        }

        proptest! {
            /// Every task finishes, after all of its dependencies.
            #[test]
            fn dependencies_are_respected(graph in arb_graph()) {
                let (engine, ids) = build(&graph);
                let schedule = engine.run();
                for (i, &(_, dur, mask)) in graph.iter().enumerate() {
                    prop_assert!(
                        (schedule.finish_time(ids[i]).value()
                            - schedule.start_time(ids[i]).value() - dur).abs() < 1e-9
                    );
                    for j in (0..i.min(64)).filter(|&j| mask >> j & 1 == 1) {
                        prop_assert!(
                            schedule.start_time(ids[i]) >= schedule.finish_time(ids[j]),
                            "task {i} started before dep {j} finished"
                        );
                    }
                }
            }

            /// The makespan is bounded below by every resource's busy time
            /// and above by the fully-serial sum.
            #[test]
            fn makespan_bounds(graph in arb_graph()) {
                let (engine, _) = build(&graph);
                let schedule = engine.run();
                let total: f64 = graph.iter().map(|&(_, d, _)| d).sum();
                prop_assert!(schedule.makespan().value() <= total + 1e-9);
                for r in 0..4 {
                    prop_assert!(
                        schedule.busy_time(ResourceId(r)).value()
                            <= schedule.makespan().value() + 1e-9
                    );
                }
            }

            /// Scheduling is deterministic.
            #[test]
            fn deterministic(graph in arb_graph()) {
                let (e1, ids) = build(&graph);
                let (e2, _) = build(&graph);
                let s1 = e1.run();
                let s2 = e2.run();
                for &id in &ids {
                    prop_assert_eq!(s1.start_time(id), s2.start_time(id));
                    prop_assert_eq!(s1.finish_time(id), s2.finish_time(id));
                }
            }

            /// Listing a dependency several times, in any order, schedules
            /// bit-identically to listing it once.
            #[test]
            fn repeated_dependencies_schedule_identically(
                graph in arb_graph(),
                repeats in proptest::collection::vec(any::<u8>(), 64..65),
            ) {
                let (once, ids) = build(&graph);
                let once = once.run();
                let repeated = build_repeated(&graph, &repeats).run();
                for &id in &ids {
                    prop_assert_eq!(
                        once.start_time(id).value().to_bits(),
                        repeated.start_time(id).value().to_bits()
                    );
                    prop_assert_eq!(
                        once.finish_time(id).value().to_bits(),
                        repeated.finish_time(id).value().to_bits()
                    );
                }
                for r in 0..4 {
                    prop_assert_eq!(
                        once.busy_time(ResourceId(r)).value().to_bits(),
                        repeated.busy_time(ResourceId(r)).value().to_bits()
                    );
                }
            }
        }
    }
}
