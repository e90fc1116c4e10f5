//! In-memory span recorder and timing wrappers around the public traits.
//!
//! A span is a name, a start, an end and the span that caused it. Each
//! thread appends to its own buffer; [`take`] collects every buffer at the
//! end of a probe. Spans opened on a thread with no open span (the worker
//! threads the engines spawn) take the innermost [`root`] span as parent,
//! so calls made inside an engine nest under the entry point that caused
//! them. [`tree`] folds spans into a `cil_obs::SpanTree`, the form `cil
//! report` reads from a metrics snapshot.

use cil_obs::{SpanStat, SpanTree};
use cil_registers::{RegId, RegisterSpec};
use cil_sim::{Adversary, Choice, Op, Protocol, Val, View, WordCodec};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Ids are unique per process; parent 0 means none.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static ROOT: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    thread: u64,
    next: u64,
    stack: Vec<u64>,
    buffer: Buffer,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn open() -> (u64, u64) {
    LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let local = cell.get_or_insert_with(|| {
            let buffer = Buffer::default();
            BUFFERS
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&buffer));
            Local {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                next: 0,
                stack: Vec::new(),
                buffer,
            }
        });
        local.next += 1;
        let id = (local.thread << 32) | local.next;
        let parent = local
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| ROOT.load(Ordering::Relaxed));
        local.stack.push(id);
        (id, parent)
    })
}

fn close(span: Span) {
    LOCAL.with(|cell| {
        let mut cell = cell.borrow_mut();
        let local = cell
            .as_mut()
            .expect("a span closes on the thread that opened it");
        local.stack.pop();
        local
            .buffer
            .lock()
            .expect("span buffer poisoned")
            .push(span);
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let (id, parent) = open();
    let start = now_ns();
    let out = f();
    let end = now_ns();
    close(Span {
        name,
        id,
        parent,
        start,
        end,
    });
    out
}

/// Runs `f` inside a span that also parents the spans of threads `f`
/// spawns (the engines' workers).
pub fn root<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span(name, || {
        let me = LOCAL.with(|cell| {
            let cell = cell.borrow();
            *cell
                .as_ref()
                .and_then(|l| l.stack.last())
                .expect("root runs inside its own span")
        });
        let outer = ROOT.swap(me, Ordering::Relaxed);
        let out = f();
        ROOT.store(outer, Ordering::Relaxed);
        out
    })
}

/// Drains every thread's buffer. Buffers of threads that have exited are
/// dropped from the registry.
pub fn take() -> Vec<Span> {
    let mut buffers = BUFFERS.lock().expect("span registry poisoned");
    let mut all = Vec::new();
    for b in buffers.iter() {
        all.append(&mut b.lock().expect("span buffer poisoned"));
    }
    buffers.retain(|b| Arc::strong_count(b) > 1);
    all
}

/// Per-name totals: span count and total time.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
}

impl NameStat {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

/// Total time of each span's direct children, by parent id.
fn child_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child = HashMap::with_capacity(spans.len());
    for s in spans {
        *child.entry(s.parent).or_insert(0) += s.ns();
    }
    child
}

/// Totals by span name.
pub fn by_name(spans: &[Span]) -> HashMap<&'static str, NameStat> {
    let mut out: HashMap<&'static str, NameStat> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.ns();
    }
    out
}

/// Totals of the spans named `name` whose parent is named `parent`.
pub fn under(spans: &[Span], parent: &str, name: &str) -> NameStat {
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut out = NameStat::default();
    for s in spans {
        if s.name == name && names.get(&s.parent) == Some(&parent) {
            out.count += 1;
            out.total_ns += s.ns();
        }
    }
    out
}

/// Folds spans into a path-keyed `SpanTree` (`parent/child` paths).
pub fn tree(spans: &[Span]) -> SpanTree {
    let index: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let child = child_ns(spans);
    let mut paths: HashMap<u64, String> = HashMap::new();
    fn path_of(s: &Span, index: &HashMap<u64, &Span>, paths: &mut HashMap<u64, String>) -> String {
        if let Some(p) = paths.get(&s.id) {
            return p.clone();
        }
        let p = match index.get(&s.parent) {
            Some(parent) => format!("{}/{}", path_of(parent, index, paths), s.name),
            None => s.name.to_string(),
        };
        paths.insert(s.id, p.clone());
        p
    }
    let mut agg: HashMap<String, SpanStat> = HashMap::new();
    for s in spans {
        let stat = agg.entry(path_of(s, &index, &mut paths)).or_default();
        stat.merge(&SpanStat {
            count: 1,
            total_ns: s.ns(),
            self_ns: s
                .ns()
                .saturating_sub(child.get(&s.id).copied().unwrap_or(0)),
        });
    }
    let mut tree = SpanTree::new();
    for (path, stat) in agg {
        tree.add(&path, stat);
    }
    tree
}

/// Times every call of a wrapped protocol, codec or adversary. Every trait
/// method is delegated; the untimed ones (`init`, `preference`, `name`, …)
/// pass straight through.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traced<T>(pub T);

impl<P: Protocol> Protocol for Traced<P> {
    type State = P::State;
    type Reg = P::Reg;

    fn processes(&self) -> usize {
        self.0.processes()
    }
    fn registers(&self) -> Vec<RegisterSpec<Self::Reg>> {
        self.0.registers()
    }
    fn init(&self, pid: usize, input: Val) -> Self::State {
        self.0.init(pid, input)
    }
    fn choose(&self, pid: usize, state: &Self::State) -> Choice<Op<Self::Reg>> {
        span("core.choose", || self.0.choose(pid, state))
    }
    fn transit(
        &self,
        pid: usize,
        state: &Self::State,
        op: &Op<Self::Reg>,
        read: Option<&Self::Reg>,
    ) -> Choice<Self::State> {
        span("core.transit", || self.0.transit(pid, state, op, read))
    }
    fn decision(&self, state: &Self::State) -> Option<Val> {
        span("core.decision", || self.0.decision(state))
    }
    fn preference(&self, pid: usize, state: &Self::State) -> Option<Val> {
        self.0.preference(pid, state)
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

impl<R, C: WordCodec<R>> WordCodec<R> for Traced<C> {
    fn pack(&self, reg: RegId, value: &R) -> u64 {
        span("sim.codec", || self.0.pack(reg, value))
    }
    fn unpack(&self, reg: RegId, word: u64) -> R {
        span("sim.codec", || self.0.unpack(reg, word))
    }
}

impl<P: Protocol, A: Adversary<P>> Adversary<P> for Traced<A> {
    fn pick(&mut self, view: &View<'_, P>) -> usize {
        span("sim.pick", || self.0.pick(view))
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

/// Recording cost, calibrated on this host.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Mean cost of one `Instant` read.
    pub clock_ns: f64,
    /// Mean recorded duration of an empty span: what every leaf span reads
    /// above its true cost.
    pub floor_ns: f64,
    /// Mean wall time of recording one empty span: what a child span adds
    /// to its parent's duration above the child's true cost.
    pub span_ns: f64,
}

pub fn calibrate() -> Calibration {
    const N: u64 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    let clock_ns = t.elapsed().as_nanos() as f64 / N as f64;
    take();
    let t = Instant::now();
    for _ in 0..N {
        span("calibrate", || std::hint::black_box(()));
    }
    let span_ns = t.elapsed().as_nanos() as f64 / N as f64;
    let spans = take();
    let floor_ns = spans.iter().map(|s| s.ns() as f64).sum::<f64>() / spans.len().max(1) as f64;
    Calibration {
        clock_ns,
        floor_ns,
        span_ns,
    }
}

impl Calibration {
    /// Mean of `stat` with the recording floor removed (never below 0).
    pub fn mean(&self, stat: NameStat) -> f64 {
        (stat.mean_ns() - self.floor_ns).max(0.0)
    }

    /// Total of `stat` with the recording floor removed.
    pub fn total(&self, stat: NameStat) -> f64 {
        (stat.total_ns as f64 - stat.count as f64 * self.floor_ns).max(0.0)
    }
}
