//! The bounded DFS explorer.
//!
//! Stateless (loom/Shuttle style): every schedule runs against a fresh
//! [`Rig`], replaying the stack's prefix of decisions and extending it at
//! the frontier. Exploration is bounded three ways:
//!
//! 1. a **preemption bound** — switching away from a thread that could
//!    still run consumes budget (switches after a thread finishes are
//!    free), following Musuvathi & Qadeer's iterative context bounding;
//! 2. **sleep sets** — after a choice is fully explored at a frame it is
//!    put to sleep there; a sleeping thread is skipped until a dependent
//!    step wakes it (conservative DPOR: only mapper lock steps on
//!    *different* locks commute);
//! 3. hard caps on runs and choice points — the deterministic time budget
//!    CI relies on (wall-clock independent).

// lint: allow(panic) — explorer invariant breaks are checker bugs, not runtime errors

use crate::counterexample::{Counterexample, Step};
use crate::exec::{Executor, ThreadView, Tid, YieldInfo};
use crate::oracle::{AccessRecord, ViolationClass, ViolationReport};
use crate::rig::Rig;
use dma_api::ProtectionProfile;
use shadow_core::EngineKind;
use std::collections::BTreeSet;

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// The engine to check.
    pub kind: EngineKind,
    /// Mapper thread count (the device thread is added on top).
    pub mappers: usize,
    /// Maximum preemptive context switches per schedule.
    pub preemption_bound: usize,
    /// Hard cap on complete schedules executed.
    pub max_runs: usize,
    /// Hard cap on choice points (frontier frames) created — the
    /// deterministic "explored states" budget.
    pub max_choice_points: usize,
    /// Enable sleep-set (partial-order) pruning.
    pub dpor: bool,
    /// Stop as soon as a window violation has a counterexample.
    pub stop_at_first_window: bool,
    /// Attach a lenient [`dmasan::DmaSan`] to every rig (cross-check).
    pub with_san: bool,
    /// Keep a per-run summary (schedules, violations, accesses).
    pub collect_runs: bool,
    /// Lock names the static lock-order pass inventoried; any yield point
    /// naming a lock outside this set is reported in
    /// [`Report::unknown_locks`]. `None` disables the check.
    pub known_locks: Option<Vec<String>>,
    /// Build every rig with per-core allocation state (pool magazines,
    /// per-core IOVA allocator, one invalidation queue per mapper) — the
    /// `netsim` `percore` configuration, under the checker.
    pub percore: bool,
}

impl Config {
    /// Defaults from the acceptance criteria: 2 mappers × 1 device,
    /// preemption bound 3, DPOR on.
    pub fn new(kind: EngineKind) -> Config {
        Config {
            kind,
            mappers: 2,
            preemption_bound: 3,
            max_runs: 100_000,
            max_choice_points: 200_000,
            dpor: true,
            stop_at_first_window: false,
            with_san: false,
            collect_runs: false,
            known_locks: None,
            percore: false,
        }
    }
}

/// Everything one completed schedule produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The decisions taken, in order.
    pub schedule: Vec<Step>,
    /// True when the run was cut short by sleep-set/budget pruning (its
    /// oracle evidence is not evaluated).
    pub pruned: bool,
    /// The engine's Table 1 row.
    pub profile: ProtectionProfile,
    /// Oracle violations recorded on the board.
    pub violations: Vec<ViolationReport>,
    /// Sanitizer violations (when [`Config::with_san`]).
    pub san_violations: Vec<dmasan::Violation>,
    /// Device accesses recorded on the board.
    pub accesses: Vec<AccessRecord>,
    /// The run's telemetry trace.
    pub events: Vec<obs::Event>,
    /// Worker panics (tid, message) — always checker bugs.
    pub panics: Vec<(Tid, String)>,
}

/// Per-run summary retained when [`Config::collect_runs`] is set.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The schedule.
    pub schedule: Vec<Step>,
    /// Oracle violations.
    pub violations: Vec<ViolationReport>,
    /// Sanitizer violation kinds (as debug strings).
    pub san_violations: Vec<String>,
    /// Device accesses.
    pub accesses: Vec<AccessRecord>,
}

/// The explorer's verdict over the bounded space.
#[derive(Debug)]
pub struct Report {
    /// Engine checked.
    pub kind: EngineKind,
    /// Complete schedules executed.
    pub runs: usize,
    /// Choice points created.
    pub choice_points: usize,
    /// Paths cut by sleep-set/budget pruning.
    pub sleep_skips: usize,
    /// True when the whole bounded space was explored (no cap hit, no
    /// early stop) — this is what "proved safe within bounds" means.
    pub exhausted: bool,
    /// A window (stale-IOTLB) violation exists in the bounded space.
    pub found_window: bool,
    /// A sub-page violation exists in the bounded space.
    pub found_subpage: bool,
    /// First violation contradicting the engine's own Table 1 claims
    /// (e.g. *any* window violation for a strict engine) — a checker
    /// failure for strict strategies.
    pub unexpected: Option<Counterexample>,
    /// First window violation witnessed.
    pub window_example: Option<Counterexample>,
    /// First sub-page violation witnessed.
    pub subpage_example: Option<Counterexample>,
    /// Lock yield points whose names the static inventory did not know.
    pub unknown_locks: Vec<String>,
    /// Per-run summaries (when collected).
    pub run_summaries: Vec<RunSummary>,
    /// Worker panics with their schedules.
    pub panics: Vec<(Vec<Step>, String)>,
}

/// One DFS stack frame: the scheduling choices at a frontier state.
#[derive(Debug)]
struct Frame {
    /// Allowed choices, previously-running thread first.
    choices: Vec<Tid>,
    /// Index of the choice currently being explored.
    idx: usize,
    /// Threads put to sleep here (explored, or inherited and still
    /// independent).
    sleep: BTreeSet<Tid>,
    /// Parked yield info per tid at this state (`None` = finished).
    infos: Vec<Option<YieldInfo>>,
    /// Preemptions consumed on the path to this state.
    preemptions: usize,
    /// The thread that ran immediately before this state.
    prev: Option<Tid>,
}

fn view_info(v: &ThreadView) -> Option<YieldInfo> {
    match v {
        ThreadView::Parked(i) => Some(i.clone()),
        _ => None,
    }
}

fn parked(views: &[ThreadView]) -> Vec<Tid> {
    views
        .iter()
        .enumerate()
        .filter(|(_, v)| matches!(v, ThreadView::Parked(_)))
        .map(|(t, _)| t)
        .collect()
}

/// Conservative independence: two *mapper* steps commute when both are
/// instrumented acquisitions of *different* locks. Everything else —
/// device probes, op boundaries, same-lock steps — is treated as
/// dependent, so pruning never hides a violating interleaving of the
/// device with the mappers.
fn independent(
    cfg: &Config,
    a_tid: Tid,
    a: Option<&YieldInfo>,
    b_tid: Tid,
    b: Option<&YieldInfo>,
) -> bool {
    if !cfg.dpor || a_tid >= cfg.mappers || b_tid >= cfg.mappers {
        return false;
    }
    matches!(
        (a, b),
        (Some(YieldInfo::Lock(la)), Some(YieldInfo::Lock(lb))) if la != lb
    )
}

/// Explores the bounded schedule space of `cfg.kind` and reports.
pub fn explore(cfg: &Config) -> Report {
    let mut report = Report {
        kind: cfg.kind,
        runs: 0,
        choice_points: 0,
        sleep_skips: 0,
        exhausted: false,
        found_window: false,
        found_subpage: false,
        unexpected: None,
        window_example: None,
        subpage_example: None,
        unknown_locks: Vec::new(),
        run_summaries: Vec::new(),
        panics: Vec::new(),
    };
    let mut stack: Vec<Frame> = Vec::new();
    loop {
        if report.runs >= cfg.max_runs || report.choice_points >= cfg.max_choice_points {
            break; // budget hit: not exhaustive
        }
        report.runs += 1;
        let outcome = run_schedule(cfg, &mut stack, &mut report);
        if !outcome.pruned {
            evaluate(cfg, &outcome, &mut report);
        }
        if cfg.stop_at_first_window && report.window_example.is_some() {
            break; // early stop: not exhaustive
        }
        if !backtrack(&mut stack) {
            report.exhausted = true;
            break;
        }
    }
    report
}

/// Replays a recorded schedule against a fresh rig, validating that every
/// step finds its thread parked at the recorded label (divergence means
/// the code under test changed — the fixture must be regenerated). The
/// run is drained to completion either way so no worker leaks.
pub fn replay(cfg: &Config, schedule: &[Step]) -> Result<RunOutcome, String> {
    let rig = Rig::build(cfg.kind, cfg.mappers, cfg.with_san, cfg.percore);
    let exec = Executor::new(cfg.mappers + 1);
    let handles = rig.spawn_workers(&exec);
    let mut views = exec.wait_quiescent();
    let mut taken = Vec::new();
    let mut divergence = None;
    for (i, step) in schedule.iter().enumerate() {
        let parked_label = match views.get(step.tid).map(view_info) {
            Some(Some(info)) => info.label(),
            _ => {
                divergence = Some(format!(
                    "step {i}: thread {} is not parked (schedule diverged)",
                    step.tid
                ));
                break;
            }
        };
        if parked_label != step.label {
            divergence = Some(format!(
                "step {i}: thread {} parked at `{parked_label}`, fixture says `{}` \
                 (schedule diverged; regenerate with mc-suite --write-fixture)",
                step.tid, step.label
            ));
            break;
        }
        taken.push(step.clone());
        views = exec.step(step.tid);
    }
    views = drain(&exec, views);
    for h in handles {
        let _ = h.join();
    }
    if let Some(why) = divergence {
        return Err(why);
    }
    Ok(finish_outcome(&rig, taken, false, views))
}

/// Steps every remaining parked thread to completion.
fn drain(exec: &Executor, mut views: Vec<ThreadView>) -> Vec<ThreadView> {
    while let Some(&t) = parked(&views).first() {
        views = exec.step(t);
    }
    views
}

fn finish_outcome(
    rig: &Rig,
    schedule: Vec<Step>,
    pruned: bool,
    views: Vec<ThreadView>,
) -> RunOutcome {
    let panics = views
        .iter()
        .enumerate()
        .filter_map(|(t, v)| match v {
            ThreadView::Panicked(m) => Some((t, m.clone())),
            _ => None,
        })
        .collect();
    RunOutcome {
        schedule,
        pruned,
        profile: rig.profile,
        violations: rig.board.violations(),
        san_violations: rig.san.as_ref().map(|s| s.violations()).unwrap_or_default(),
        accesses: rig.board.accesses(),
        events: rig.obs.tracer().events(),
        panics,
    }
}

/// Executes one schedule: replays the stack prefix, extends greedily at
/// the frontier (first allowed choice of every new frame).
fn run_schedule(cfg: &Config, stack: &mut Vec<Frame>, report: &mut Report) -> RunOutcome {
    let rig = Rig::build(cfg.kind, cfg.mappers, cfg.with_san, cfg.percore);
    let exec = Executor::new(cfg.mappers + 1);
    let handles = rig.spawn_workers(&exec);
    let mut views = exec.wait_quiescent();
    let mut schedule = Vec::new();
    let mut depth = 0usize;
    let mut pruned = false;
    loop {
        if let Some(known) = &cfg.known_locks {
            for v in &views {
                if let ThreadView::Parked(YieldInfo::Lock(name)) = v {
                    if !known.iter().any(|k| k == name) && !report.unknown_locks.contains(name) {
                        report.unknown_locks.push(name.clone());
                    }
                }
            }
        }
        let enabled = parked(&views);
        if enabled.is_empty() {
            break; // all workers finished (or panicked): terminal state
        }
        let tid = if depth < stack.len() {
            // Replaying the committed prefix.
            let f = &stack[depth];
            f.choices[f.idx]
        } else {
            // Frontier: open a new choice frame.
            let (prev, preemptions, inherited_sleep) = match stack.last() {
                Some(parent) => {
                    let chosen = parent.choices[parent.idx];
                    let cost = match parent.prev {
                        Some(p) if p != chosen && parent.infos[p].is_some() => 1,
                        _ => 0,
                    };
                    let sleep = parent
                        .sleep
                        .iter()
                        .copied()
                        .filter(|&u| {
                            independent(
                                cfg,
                                chosen,
                                parent.infos[chosen].as_ref(),
                                u,
                                parent.infos[u].as_ref(),
                            )
                        })
                        .collect::<BTreeSet<_>>();
                    (Some(chosen), parent.preemptions + cost, sleep)
                }
                None => (None, 0, BTreeSet::new()),
            };
            let infos: Vec<Option<YieldInfo>> = views.iter().map(view_info).collect();
            let mut choices = Vec::new();
            match prev {
                // The previous thread is still runnable: continuing it is
                // free; anything else preempts.
                Some(p) if infos[p].is_some() => {
                    if !inherited_sleep.contains(&p) {
                        choices.push(p);
                    }
                    if preemptions < cfg.preemption_bound {
                        choices.extend(
                            enabled
                                .iter()
                                .copied()
                                .filter(|&t| t != p && !inherited_sleep.contains(&t)),
                        );
                    }
                }
                // First step, or the previous thread finished: any switch
                // is free.
                _ => choices.extend(
                    enabled
                        .iter()
                        .copied()
                        .filter(|t| !inherited_sleep.contains(t)),
                ),
            }
            report.choice_points += 1;
            if choices.is_empty() {
                // Every enabled move is asleep (or budget-blocked): this
                // whole subtree is covered elsewhere. Prune.
                pruned = true;
                report.sleep_skips += 1;
                break;
            }
            stack.push(Frame {
                choices,
                idx: 0,
                sleep: inherited_sleep,
                infos,
                preemptions,
                prev,
            });
            stack.last().expect("just pushed").choices[0]
        };
        let label = view_info(&views[tid])
            .expect("scheduled thread is parked")
            .label();
        schedule.push(Step { tid, label });
        views = exec.step(tid);
        depth += 1;
    }
    let views = drain(&exec, views);
    for h in handles {
        let _ = h.join();
    }
    finish_outcome(&rig, schedule, pruned, views)
}

/// Advances the DFS to the next unexplored branch; false = space done.
fn backtrack(stack: &mut Vec<Frame>) -> bool {
    loop {
        let Some(top) = stack.last_mut() else {
            return false;
        };
        // The branch just explored goes to sleep at this frame.
        let explored = top.choices[top.idx];
        top.sleep.insert(explored);
        top.idx += 1;
        while top.idx < top.choices.len() && top.sleep.contains(&top.choices[top.idx]) {
            top.idx += 1;
        }
        if top.idx < top.choices.len() {
            return true;
        }
        stack.pop();
    }
}

/// Folds one completed run's evidence into the report.
fn evaluate(cfg: &Config, outcome: &RunOutcome, report: &mut Report) {
    for (_, msg) in &outcome.panics {
        report.panics.push((outcome.schedule.clone(), msg.clone()));
    }
    for v in &outcome.violations {
        let cx = || Counterexample::new(cfg.kind.name(), v, &outcome.schedule, &outcome.events);
        match v.class {
            ViolationClass::Window => {
                report.found_window = true;
                if report.window_example.is_none() {
                    report.window_example = Some(cx());
                }
                if outcome.profile.no_vulnerability_window && report.unexpected.is_none() {
                    report.unexpected = Some(cx());
                }
            }
            ViolationClass::Subpage => {
                report.found_subpage = true;
                if report.subpage_example.is_none() {
                    report.subpage_example = Some(cx());
                }
                if outcome.profile.sub_page && report.unexpected.is_none() {
                    report.unexpected = Some(cx());
                }
            }
        }
    }
    if cfg.collect_runs {
        report.run_summaries.push(RunSummary {
            schedule: outcome.schedule.clone(),
            violations: outcome.violations.clone(),
            san_violations: outcome
                .san_violations
                .iter()
                .map(|v| format!("{:?}", v.kind))
                .collect(),
            accesses: outcome.accesses.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backtrack_walks_the_whole_tree() {
        // Two frames of two choices each: expect 3 advances then done.
        let mut stack = vec![
            Frame {
                choices: vec![0, 1],
                idx: 0,
                sleep: BTreeSet::new(),
                infos: vec![None, None],
                preemptions: 0,
                prev: None,
            },
            Frame {
                choices: vec![0, 1],
                idx: 0,
                sleep: BTreeSet::new(),
                infos: vec![None, None],
                preemptions: 0,
                prev: None,
            },
        ];
        assert!(backtrack(&mut stack)); // inner -> choice 1
        assert_eq!(stack.len(), 2);
        assert!(backtrack(&mut stack)); // inner done, outer -> choice 1
        assert_eq!(stack.len(), 1);
        assert!(!backtrack(&mut stack) || stack.is_empty());
    }

    #[test]
    fn independence_requires_distinct_mapper_locks() {
        let cfg = Config::new(EngineKind::Copy);
        let la = YieldInfo::Lock("a".into());
        let lb = YieldInfo::Lock("b".into());
        let op = YieldInfo::Op("x".into());
        assert!(independent(&cfg, 0, Some(&la), 1, Some(&lb)));
        assert!(!independent(&cfg, 0, Some(&la), 1, Some(&la)));
        assert!(!independent(&cfg, 0, Some(&la), 1, Some(&op)));
        // The device (tid == mappers) never commutes with anything.
        assert!(!independent(&cfg, 0, Some(&la), 2, Some(&lb)));
        let nodpor = Config {
            dpor: false,
            ..Config::new(EngineKind::Copy)
        };
        assert!(!independent(&nodpor, 0, Some(&la), 1, Some(&lb)));
    }
}
