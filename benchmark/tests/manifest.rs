//! The files around the code must say what the code does: the release
//! profile of the root manifest, and the names `BENCHMARK.json` declares.

use benchmark::end_to_end_names;
use benchmark::workloads::WORKLOADS;
use obs::Json;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of one TOML table, comments and blanks dropped,
/// sorted.
fn table(manifest: &str, header: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn release_profile_repeats_the_root_manifest() {
    let root = table(&read("../Cargo.toml"), "[profile.release]");
    let ours = table(&read("Cargo.toml"), "[profile.release]");
    assert!(!root.is_empty(), "root manifest has no [profile.release]");
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml must repeat the root [profile.release]: a standalone \
         package does not inherit it, and build settings change host speed"
    );
}

fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(v)) => v,
        other => panic!("BENCHMARK.json: {key} is {other:?}, not an array"),
    }
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: entry {entry:?} has no string {key}"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_declares_what_the_code_prints() {
    let doc = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");

    let paths: Vec<&str> = arr(&doc, "paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["benchmark"]);

    let declared: Vec<(&str, &str)> = arr(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, ours);
    for (name, why) in ours {
        assert!(is_name(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }

    for (key, ours) in [
        ("end_to_end", end_to_end_names()),
        ("per_layer", benchmark::per_layer_names()),
    ] {
        let declared: Vec<(String, &str)> = arr(&doc, key)
            .iter()
            .map(|m| (text(m, "name").to_string(), text(m, "unit")))
            .collect();
        assert_eq!(declared, ours, "{key}");
        for (name, unit) in &ours {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{name}: unit {unit}");
        }
        for m in arr(&doc, key) {
            let better = text(m, "better");
            assert!(better == "higher" || better == "lower", "{m:?}");
        }
    }

    let setup = arr(&doc, "end_to_end")
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    for m in arr(&doc, "end_to_end") {
        match m.get("bound") {
            Some(Json::Float(b)) => assert!((0.0..=0.25).contains(b), "{m:?}"),
            other => panic!("bound of {m:?} is {other:?}"),
        }
    }
}
