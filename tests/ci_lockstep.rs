//! `ci.sh` calls itself the local mirror of `.github/workflows/ci.yml`, and
//! every PR that touched one had to touch the other by hand. This holds
//! them together: the `cargo …` and `sh -n …` command lines of the script,
//! in order, are exactly those of the workflow's `run:` steps.

const CI_SH: &str = include_str!("../ci.sh");
const CI_YML: &str = include_str!("../.github/workflows/ci.yml");

fn squeeze(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The script's commands: uncommented lines, `\` continuations joined.
fn script_commands(text: &str) -> Vec<String> {
    let mut commands = Vec::new();
    let mut pending = String::new();
    for line in text.lines().filter(|l| !l.trim_start().starts_with('#')) {
        match line.trim_end().strip_suffix('\\') {
            Some(head) => pending.push_str(head),
            None => {
                pending.push_str(line);
                commands.push(squeeze(&pending));
                pending.clear();
            }
        }
    }
    commands
}

/// The workflow's `run:` values: inline scalars, and folded or literal
/// blocks (`>-`, `|`) as the more-indented lines that follow.
fn workflow_commands(text: &str) -> Vec<String> {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let lines: Vec<&str> = text.lines().collect();
    let mut commands = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(value) = line.trim_start().strip_prefix("run:") else {
            continue;
        };
        let block: Vec<&str> = match value.trim() {
            ">" | ">-" | "|" | "|-" => lines[i + 1..]
                .iter()
                .take_while(|l| l.trim().is_empty() || indent(l) > indent(line))
                .copied()
                .collect(),
            inline => vec![inline],
        };
        commands.push(squeeze(&block.join(" ")));
    }
    commands
}

/// The cargo commands, with or without leading `VAR=value` assignments,
/// and the `sh -n` syntax checks of the scripts.
fn cargo_only(mut commands: Vec<String>) -> Vec<String> {
    commands.retain(|c| {
        c.starts_with("cargo ")
            || c.starts_with("sh -n ")
            || c.split_once(" cargo ").is_some_and(|(env, _)| {
                env.contains('=') && env.starts_with(|ch: char| ch.is_ascii_uppercase())
            })
    });
    commands
}

#[test]
fn ci_sh_runs_the_workflows_cargo_commands_in_order() {
    let script = cargo_only(script_commands(CI_SH));
    let workflow = cargo_only(workflow_commands(CI_YML));
    assert!(script.len() >= 10, "parsed only {script:?} from ci.sh");
    assert!(
        script.iter().any(|c| c.contains("-- --skip ")),
        "the continued benchmark-test line was not joined: {script:?}"
    );
    assert!(
        script
            .iter()
            .any(|c| c.ends_with("cargo doc --workspace --no-deps")),
        "the env-prefixed rustdoc line was not kept: {script:?}"
    );
    assert_eq!(script, workflow, "ci.sh (left) and ci.yml (right) differ");
}

#[test]
fn the_parsers_see_a_planted_difference() {
    let sh = "set -eux\ncargo build\ncargo test -q \\\n    --workspace\n# cargo fmt\n";
    let yml = "steps:\n  - name: b\n    run: cargo build\n  - name: t\n    run: >-\n      cargo test -q\n      --workspace\n  - uses: x\n";
    assert_eq!(
        cargo_only(script_commands(sh)),
        ["cargo build", "cargo test -q --workspace"]
    );
    assert_eq!(
        cargo_only(workflow_commands(yml)),
        cargo_only(script_commands(sh))
    );
    let reordered = yml.replace("cargo build", "cargo clippy");
    assert_ne!(
        cargo_only(workflow_commands(&reordered)),
        cargo_only(script_commands(sh))
    );
}
