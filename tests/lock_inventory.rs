//! Cross-layer check: the lint pass's *static* lock-site inventory must
//! cover every lock the bounded model checker *observes at runtime*. A
//! lock the checker schedules around but the static pass cannot see would
//! make the lock-order analysis silently incomplete — this test makes
//! that drift a failure.

use dma_shadowing::lint::lock_order_analysis;
use dma_shadowing::shadow_core::EngineKind;
use modelcheck::{explore, Config};
use std::path::Path;

#[test]
fn static_inventory_covers_model_checker_runtime_locks() {
    let report = lock_order_analysis(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("scan workspace lock sites");
    let names = report.lock_names();
    assert!(!names.is_empty(), "static lock inventory came back empty");
    // The per-core configuration's locks must be in the static map before
    // any percore run is checked against it.
    for percore_lock in ["pool-magazine", "scalable-iova-shared"] {
        assert!(
            names.iter().any(|n| n == percore_lock),
            "static inventory {names:?} is missing `{percore_lock}`"
        );
    }
    // Copy exercises the pool locks; defer exercises the IOVA
    // allocator, the deferred flush list, and the invalidation queue. The
    // percore variants add the magazine and shared-pool locks to the
    // runtime set, and take the invalidation-queue lock once per core; the
    // percore deferred pairs (*defer*, *eiovar-*) run the shared pool under
    // per-core pending lists.
    for (kind, percore) in [
        (EngineKind::Copy, false),
        (EngineKind::LinuxDefer, false),
        (EngineKind::Copy, true),
        (EngineKind::LinuxStrict, true),
        (EngineKind::LinuxDefer, true),
        (EngineKind::EiovarDefer, true),
    ] {
        let mut cfg = Config::new(kind);
        cfg.known_locks = Some(names.clone());
        cfg.percore = percore;
        let r = explore(&cfg);
        assert!(
            r.exhausted,
            "{kind} (percore={percore}): bounded space not covered"
        );
        assert!(
            r.unknown_locks.is_empty(),
            "{kind} (percore={percore}): runtime locks missing from the \
             static inventory {names:?}: {:?}",
            r.unknown_locks
        );
    }
}

/// Hand-rolled lockset instrumentation found in one source file, outside
/// `#[cfg(test)]`: constructions (not patterns) of the three lockset event
/// kinds, and reads of the detail gate.
fn hand_rolled_lockset_sites(label: &str, src: &str) -> Vec<String> {
    let p = dma_shadowing::lint::lexer::prep(label, src);
    let bb = p.blank.as_bytes();
    let mut out = Vec::new();
    let mut hit = |pos: usize, what: &str| {
        let line = p.line_of(pos);
        if !p.in_test(line) {
            out.push(format!("{label}:{line}: {what}"));
        }
    };
    for kind in ["LockAcquire", "LockRelease", "SharedAccess"] {
        let needle = format!("EventKind::{kind}");
        for (pos, _) in p.blank.match_indices(&needle) {
            // A braced value followed by `=>`, `=` or `|` is a pattern
            // (the detectors that *read* the stream), not a construction.
            let skip_ws = |mut k: usize| {
                while bb.get(k).is_some_and(u8::is_ascii_whitespace) {
                    k += 1;
                }
                k
            };
            let open = skip_ws(pos + needle.len());
            let close = match bb.get(open) {
                Some(b'{') => bb[open..].iter().position(|&c| c == b'}').map(|o| open + o),
                _ => None,
            };
            let after = close.map(|c| skip_ws(c + 1)).and_then(|k| bb.get(k));
            if !matches!(after, Some(b'=' | b'|')) {
                hit(pos, &needle);
            }
        }
    }
    for (pos, _) in p.blank.match_indices(".detail_enabled()") {
        hit(pos, "detail_enabled()");
    }
    out
}

fn rust_files_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn lockset_events_are_built_only_by_the_obs_primitive() {
    // The scanner must have teeth before its silence means anything.
    let planted = "fn f(o: &Obs) { if o.detail_enabled() { \
                   o.trace(t, 0, None, EventKind::LockAcquire { lock: n.into() }); } }";
    assert_eq!(hand_rolled_lockset_sites("x.rs", planted).len(), 2);
    let reader = "fn g(k: &EventKind) { match k { EventKind::SharedAccess { var, write } => {} \
                  _ => {} } if let EventKind::LockRelease { lock } = k {} }";
    assert!(hand_rolled_lockset_sites("x.rs", reader).is_empty());

    // Every lock site goes through `Obs::{locked, guarded, shared_access}`;
    // a new hand-copied acquire/access/release triple (and with it a new
    // place to get the acquire-before-lock ordering wrong) fails here.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for member in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let member = member.expect("dir entry").path();
        if member.file_name().is_some_and(|n| n != "obs") {
            rust_files_under(&member.join("src"), &mut files);
            rust_files_under(&member.join("benches"), &mut files);
        }
    }
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files_under(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "source walk found only {}", files.len());
    let mut sites = Vec::new();
    for f in files {
        let label = f.strip_prefix(root).unwrap_or(&f).display().to_string();
        let src = std::fs::read_to_string(&f).expect("read source");
        sites.extend(hand_rolled_lockset_sites(&label, &src));
    }
    assert!(
        sites.is_empty(),
        "lockset instrumentation outside crates/obs:\n{}",
        sites.join("\n")
    );
}
