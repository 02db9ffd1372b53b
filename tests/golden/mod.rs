//! What the golden tests share: exact comparison of computed rows against a
//! committed fixture, and the bless path for an intended change.
//!
//! There is no switch. A mismatch writes the complete actual table (under
//! the fixture's own `#` header) to `target/<name>.actual.txt` and prints
//! the `cp` line, so an intended change is one copied file and one reviewed
//! fixture diff; an unintended one is the failure it should be.

// lint: allow(ambient-io) — a mismatch writes the actual table under target/ so that blessing it is one `cp`

/// A committed fixture: `tests/fixtures/<name>.txt`, included as `text`.
pub struct Golden {
    pub name: &'static str,
    pub text: &'static str,
}

impl Golden {
    /// Panics unless the fixture's rows that start with `prefix` are exactly
    /// `actual`. Only then is `table` called, for every row of the fixture
    /// as the code now computes it.
    pub fn check(&self, prefix: &str, actual: &[String], table: impl FnOnce() -> Vec<String>) {
        let (header, rows): (Vec<&str>, Vec<&str>) =
            self.text.lines().partition(|l| l.starts_with('#'));
        let expected: Vec<&str> = rows.into_iter().filter(|l| l.starts_with(prefix)).collect();
        if expected == actual {
            return;
        }
        let mismatches: Vec<String> = (0..expected.len().max(actual.len()))
            .filter(|&i| expected.get(i).copied() != actual.get(i).map(String::as_str))
            .map(|i| {
                format!(
                    "  expected: {}\n  actual:   {}",
                    expected.get(i).unwrap_or(&"<missing>"),
                    actual.get(i).map_or("<missing>", String::as_str)
                )
            })
            .collect();
        let fixture = format!("tests/fixtures/{}.txt", self.name);
        let path = format!("target/{}.actual.txt", self.name);
        let mut body = header.join("\n");
        for row in table() {
            body.push('\n');
            body.push_str(&row);
        }
        body.push('\n');
        let written = std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, body));
        let bless = match written {
            Ok(()) => format!("cp {path} {fixture}"),
            Err(e) => format!("(could not write {path}: {e})"),
        };
        panic!(
            "{fixture}: rows `{prefix}*` differ ({} expected, {} actual):\n{}\n\
             If the change is intended, bless it and review the fixture diff:\n  {bless}",
            expected.len(),
            actual.len(),
            mismatches.join("\n"),
        );
    }
}
