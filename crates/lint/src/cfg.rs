//! Block parser and control-flow graphs over the token stream.
//!
//! [`build_trees`] matches `{}`/`()`/`[]` delimiters into token trees,
//! [`extract_functions`] finds every `fn` body (at any nesting — free
//! functions, `impl` methods, nested modules) outside `#[cfg(test)]`
//! regions, and [`Cfg::build`] lowers a body into an intraprocedural
//! control-flow graph: one basic block per statement, with edges for
//! `if`/`else` chains, `match` arms, loops, and early `return`. A `?`
//! statement's early-exit edge is *implicit*: dataflow consumers see
//! [`Stmt::has_try`] and propagate to the exit node themselves, because
//! the state on the error edge differs from the fallthrough state (a
//! `let h = map(…)?` binding never happens on the error path).

use crate::lexer::{Prep, Token};

/// A token tree: a plain token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A non-delimiter token.
    Tok(Token),
    /// A `{…}`, `(…)` or `[…]` group.
    Group {
        /// Opening delimiter: `'{'`, `'('` or `'['`.
        delim: char,
        /// Children trees.
        children: Vec<Tree>,
        /// 1-indexed line of the opening delimiter.
        open_line: usize,
        /// Byte offset of the opening delimiter (in either stripped view).
        open_pos: usize,
    },
}

impl Tree {
    /// The token, if this is a plain one.
    pub fn token(&self) -> Option<&Token> {
        match self {
            Tree::Tok(t) => Some(t),
            Tree::Group { .. } => None,
        }
    }

    /// The identifier text, if this is an ident token.
    pub fn ident(&self) -> Option<&str> {
        self.token().filter(|t| t.is_ident).map(|t| t.text.as_str())
    }

    /// `true` if this is the ident token `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tree::Tok(t) if t.is_ident && t.text == s)
    }

    /// `true` if this is the punct token `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        matches!(self, Tree::Tok(t) if !t.is_ident && t.text == s)
    }

    /// 1-indexed line this tree starts on.
    pub fn line(&self) -> usize {
        match self {
            Tree::Tok(t) => t.line,
            Tree::Group { open_line, .. } => *open_line,
        }
    }
}

/// Parses a token stream into trees. Tolerant of imbalance: a stray
/// closer is dropped, an unterminated group closes at end of input.
pub fn build_trees(tokens: &[Token]) -> Vec<Tree> {
    let mut i = 0;
    parse_group(tokens, &mut i, None)
}

fn parse_group(tokens: &[Token], i: &mut usize, closer: Option<&str>) -> Vec<Tree> {
    let mut out = Vec::new();
    while *i < tokens.len() {
        let t = &tokens[*i];
        if !t.is_ident {
            if let Some(c) = closer {
                if t.text == c {
                    *i += 1; // consume the closing delimiter
                    return out;
                }
            }
            match t.text.as_str() {
                "{" | "(" | "[" => {
                    let delim = t.text.chars().next().unwrap_or('(');
                    let (open_line, open_pos) = (t.line, t.pos);
                    let want = match delim {
                        '{' => "}",
                        '(' => ")",
                        _ => "]",
                    };
                    *i += 1;
                    let children = parse_group(tokens, i, Some(want));
                    out.push(Tree::Group {
                        delim,
                        children,
                        open_line,
                        open_pos,
                    });
                    continue;
                }
                "}" | ")" | "]" => {
                    // Stray closer (not ours): drop it.
                    *i += 1;
                    continue;
                }
                _ => {}
            }
        }
        out.push(Tree::Tok(t.clone()));
        *i += 1;
    }
    out
}

/// One parameter of an extracted function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name (`self` for receivers; pattern parameters take
    /// their first identifier).
    pub name: String,
}

/// One extracted function body.
#[derive(Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// The declared parameters, in order (receiver included).
    pub params: Vec<Param>,
    /// The `{…}` body children.
    pub body: Vec<Tree>,
}

/// Parses a signature group's children into parameters. Each parameter is
/// `pat: Type` (or a bare receiver); the binding name is the first
/// identifier after any `&`/`mut` prefix. Angle brackets are not groups,
/// so a comma inside `<…>` (`Result<(), E>`) is skipped by depth.
fn parse_params(children: &[Tree]) -> Vec<Param> {
    let mut out = Vec::new();
    let mut angles = 0i32;
    let params = children.split(|t| {
        angles += i32::from(t.is_punct("<")) - i32::from(t.is_punct(">"));
        angles == 0 && t.is_punct(",")
    });
    for arg in params {
        if arg.is_empty() {
            continue;
        }
        // Receiver forms: `self`, `&self`, `&mut self`, `mut self`.
        let pat = match arg.iter().position(|t| t.is_punct(":")) {
            Some(c) => &arg[..c],
            None => arg,
        };
        let name = pat
            .iter()
            .filter_map(|t| match t {
                Tree::Tok(tok) if tok.is_ident && tok.text != "mut" => Some(tok.text.clone()),
                _ => None,
            })
            .next()
            .unwrap_or_default();
        if !name.is_empty() {
            out.push(Param { name });
        }
    }
    out
}

/// Splits call arguments at top-level commas. A closure argument's
/// parameter list (`|ctx, batch| …`, opened by a `|` that starts the
/// argument or follows its `move`) is one argument, and a bitwise or
/// (`a | b`) is not a closure.
pub fn split_top_level_commas(children: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_closure_params = false;
    for (k, t) in children.iter().enumerate() {
        let opens = match &children[start..k] {
            [] => true,
            [kw] => kw.is_ident("move"),
            _ => false,
        };
        if t.is_punct("|") && (in_closure_params || opens) {
            in_closure_params = !in_closure_params;
        } else if t.is_punct(",") && !in_closure_params {
            out.push(&children[start..k]);
            start = k + 1;
        }
    }
    if start < children.len() {
        out.push(&children[start..]);
    }
    out
}

/// Extracts every function with a body from `trees`, recursing into brace
/// groups (impl blocks, modules). Functions whose `fn` token lies in a
/// `#[cfg(test)]` region of `prep` are skipped, as are closure-less trait
/// method *declarations* (`fn f(…);`).
pub fn extract_functions(prep: &Prep, trees: &[Tree]) -> Vec<Function> {
    let mut out = Vec::new();
    walk_functions(prep, trees, &mut out);
    out
}

fn walk_functions(prep: &Prep, trees: &[Tree], out: &mut Vec<Function>) {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].is_ident("fn") {
            let fn_line = trees[i].line();
            let name = trees
                .get(i + 1)
                .and_then(|t| t.token())
                .map(|t| t.text.as_str())
                .unwrap_or("")
                .to_string();
            // Scan forward for the body brace group; a `;` first means a
            // trait-method declaration with no body. The first `(` group
            // on the way is the parameter list (return-type parentheses
            // only appear after it).
            let mut j = i + 2;
            let mut body = None;
            let mut params = Vec::new();
            let mut saw_params = false;
            while j < trees.len() {
                match &trees[j] {
                    Tree::Group {
                        delim: '{',
                        children,
                        ..
                    } => {
                        body = Some(children.clone());
                        break;
                    }
                    Tree::Group {
                        delim: '(',
                        children,
                        ..
                    } if !saw_params => {
                        saw_params = true;
                        params = parse_params(children);
                        j += 1;
                    }
                    t if t.is_punct(";") => break,
                    _ => j += 1,
                }
            }
            if let Some(body) = body {
                if !prep.in_test(fn_line) {
                    // Nested functions inside this body are found by the
                    // recursion below; the body itself is scanned too.
                    walk_functions(prep, &body, out);
                    out.push(Function {
                        name,
                        line: fn_line,
                        params,
                        body,
                    });
                }
                i = j + 1;
                continue;
            }
        }
        if let Tree::Group {
            delim: '{',
            children,
            ..
        } = &trees[i]
        {
            walk_functions(prep, children, out);
        }
        i += 1;
    }
}

/// One statement of a basic block: its token trees and starting line.
#[derive(Debug)]
pub struct Stmt {
    /// The statement's token trees (terminator `;` removed).
    pub trees: Vec<Tree>,
    /// 1-indexed starting line.
    pub line: usize,
    /// The statement contains a top-level `?` (an implicit early-return
    /// edge to the exit node).
    pub has_try: bool,
    /// The statement is a `return`/`break`-style terminator.
    pub is_return: bool,
    /// The statement is a tail expression of the function (no `;`),
    /// also when it ends an arm of a tail `if`/`else` or `match`: its
    /// value — and any handle mentioned in it — escapes to the caller.
    pub is_tail: bool,
}

/// A basic block: exactly one statement (possibly empty for join nodes)
/// plus successor edges.
#[derive(Debug, Default)]
pub struct Block {
    /// The statement, if any (join/entry/exit blocks have none).
    pub stmt: Option<Stmt>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// An intraprocedural control-flow graph with dedicated entry/exit nodes.
#[derive(Debug)]
pub struct Cfg {
    /// All blocks; edges index into this vector.
    pub blocks: Vec<Block>,
    /// Entry block index.
    pub entry: usize,
    /// Exit block index: every `return` and fallthrough leads here. `?`
    /// error edges are implicit (see [`Stmt::has_try`]).
    pub exit: usize,
}

impl Cfg {
    /// Lowers a function body into a CFG.
    pub fn build(body: &[Tree]) -> Cfg {
        let mut cfg = Cfg {
            blocks: vec![Block::default(), Block::default()],
            entry: 0,
            exit: 1,
        };
        let end = cfg.lower_block(body, cfg.entry, true);
        cfg.link(end, 1);
        cfg
    }

    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    /// Every statement, minus nested `fn` items (they are their own
    /// functions).
    pub fn stmts(&self) -> impl Iterator<Item = &Stmt> {
        self.blocks
            .iter()
            .filter_map(|b| b.stmt.as_ref())
            .filter(|s| !s.trees.first().is_some_and(|t| t.is_ident("fn")))
    }

    fn link(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Lowers a `{}` body: returns the block control falls out of.
    /// `tail` says the body's value is the function's: its final
    /// expression-statement is then a tail.
    fn lower_block(&mut self, trees: &[Tree], mut cur: usize, tail: bool) -> usize {
        let stmts = split_statements(trees);
        let n = stmts.len();
        for (k, raw) in stmts.into_iter().enumerate() {
            let is_last = k + 1 == n;
            cur = self.lower_stmt(raw, cur, tail && is_last);
        }
        cur
    }

    /// Lowers one raw statement; returns the block control continues in.
    fn lower_stmt(&mut self, raw: RawStmt, cur: usize, tail_position: bool) -> usize {
        let tail = tail_position && !raw.terminated;
        match classify(&raw) {
            StmtShape::If => self.lower_if(&raw.trees, cur, tail),
            StmtShape::Match => self.lower_match(&raw.trees, cur, tail),
            StmtShape::Loop => self.lower_loop(&raw.trees, cur),
            StmtShape::Block(children) => {
                // Plain `{ … }` statement (or `unsafe { … }`).
                self.lower_block(&children, cur, tail)
            }
            StmtShape::Simple { is_return } => {
                let has_try = top_level_try(&raw.trees);
                let is_tail = tail && !is_return;
                let b = self.new_block();
                self.blocks[b].stmt = Some(Stmt {
                    line: raw.trees.first().map(Tree::line).unwrap_or(0),
                    trees: raw.trees,
                    has_try,
                    is_return,
                    is_tail,
                });
                self.link(cur, b);
                if is_return {
                    self.link(b, self.exit);
                    // Control never falls through a return; park the
                    // continuation in an unreachable block.
                    let dead = self.new_block();
                    return dead;
                }
                b
            }
        }
    }

    /// The head block of an `if`/`match`/loop statement after `cur`: the
    /// tokens between the keyword (and an `if let` pattern) and the first
    /// brace group, evaluated once as a statement — they may contain DMA
    /// calls or `?`. Returns the block and the brace group's index.
    fn lower_head(&mut self, trees: &[Tree], cur: usize) -> (usize, usize) {
        let brace = trees
            .iter()
            .position(|t| matches!(t, Tree::Group { delim: '{', .. }))
            .unwrap_or(trees.len());
        let head = trees[1..brace].to_vec();
        let h = self.new_block();
        self.blocks[h].stmt = Some(Stmt {
            line: trees.first().map(Tree::line).unwrap_or(0),
            has_try: top_level_try(&head),
            trees: head,
            is_return: false,
            is_tail: false,
        });
        self.link(cur, h);
        (h, brace)
    }

    /// `if cond { … } else if … { … } else { … }` — evaluates the
    /// condition, then branches; in `tail` position each arm's value is
    /// the function's.
    fn lower_if(&mut self, trees: &[Tree], cur: usize, tail: bool) -> usize {
        let (h, then_at) = self.lower_head(trees, cur);
        let join = self.new_block();
        if let Some(Tree::Group { children, .. }) = trees.get(then_at) {
            let end = self.lower_block(children, h, tail);
            self.link(end, join);
        } else {
            self.link(h, join);
        }
        // `else`:
        match trees.get(then_at + 1) {
            Some(t) if t.is_ident("else") => {
                let rest = &trees[then_at + 2..];
                match rest.first() {
                    Some(Tree::Group {
                        delim: '{',
                        children,
                        ..
                    }) => {
                        let end = self.lower_block(children, h, tail);
                        self.link(end, join);
                    }
                    Some(t2) if t2.is_ident("if") => {
                        let end = self.lower_if(rest, h, tail);
                        self.link(end, join);
                    }
                    _ => self.link(h, join),
                }
            }
            _ => self.link(h, join),
        }
        join
    }

    /// `match scrut { pat => body, … }` — the scrutinee is evaluated once,
    /// then each arm body is an alternative path to the join node.
    fn lower_match(&mut self, trees: &[Tree], cur: usize, tail: bool) -> usize {
        let (h, arms_at) = self.lower_head(trees, cur);
        let join = self.new_block();
        let mut any_arm = false;
        if let Some(Tree::Group { children, .. }) = trees.get(arms_at) {
            for arm in split_match_arms(children) {
                any_arm = true;
                let end = self.lower_block(&arm, h, tail);
                self.link(end, join);
            }
        }
        if !any_arm {
            self.link(h, join);
        }
        join
    }

    /// `loop`/`while`/`for` — head evaluates, body loops back to the
    /// head, and the head also exits to the continuation (conservatively
    /// even for `loop`, which matches `break`).
    fn lower_loop(&mut self, trees: &[Tree], cur: usize) -> usize {
        let (h, body_at) = self.lower_head(trees, cur);
        if let Some(Tree::Group { children, .. }) = trees.get(body_at) {
            let end = self.lower_block(children, h, false);
            self.link(end, h); // back edge
        }
        let after = self.new_block();
        self.link(h, after);
        after
    }
}

/// A raw statement before lowering.
struct RawStmt {
    trees: Vec<Tree>,
    /// Ended with an explicit `;`.
    terminated: bool,
}

enum StmtShape {
    If,
    Match,
    Loop,
    Block(Vec<Tree>),
    Simple { is_return: bool },
}

fn classify(raw: &RawStmt) -> StmtShape {
    match raw.trees.first() {
        Some(t) if t.is_ident("if") => StmtShape::If,
        Some(t) if t.is_ident("match") => StmtShape::Match,
        Some(t) if t.is_ident("loop") || t.is_ident("while") || t.is_ident("for") => {
            StmtShape::Loop
        }
        Some(t) if t.is_ident("return") || t.is_ident("break") || t.is_ident("continue") => {
            StmtShape::Simple { is_return: true }
        }
        Some(t) if t.is_ident("unsafe") => match raw.trees.get(1) {
            Some(Tree::Group {
                delim: '{',
                children,
                ..
            }) if raw.trees.len() == 2 => StmtShape::Block(children.clone()),
            _ => StmtShape::Simple { is_return: false },
        },
        Some(Tree::Group {
            delim: '{',
            children,
            ..
        }) if raw.trees.len() == 1 => StmtShape::Block(children.clone()),
        _ => StmtShape::Simple { is_return: false },
    }
}

/// Splits a body's trees into statements: at top-level `;`, and after a
/// block-shaped statement (`if`/`match`/`loop`/`while`/`for`/plain block)
/// whose brace group is not followed by `;` (expression-statement form).
fn split_statements(trees: &[Tree]) -> Vec<RawStmt> {
    let mut out = Vec::new();
    let mut cur: Vec<Tree> = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        let t = &trees[i];
        if t.is_punct(";") {
            out.push(RawStmt {
                trees: std::mem::take(&mut cur),
                terminated: true,
            });
            i += 1;
            continue;
        }
        let block_headed = cur.first().is_some_and(|h| {
            ["if", "match", "loop", "while", "for", "unsafe", "fn"]
                .iter()
                .any(|k| h.is_ident(k))
        }) || (cur.is_empty() && matches!(t, Tree::Group { delim: '{', .. }));
        cur.push(t.clone());
        if block_headed && matches!(t, Tree::Group { delim: '{', .. }) {
            // `if … { } else …` continues; anything else ends the
            // statement unless a `;`/`else` follows.
            let next_else = trees.get(i + 1).is_some_and(|n| n.is_ident("else"));
            let next_semi = trees.get(i + 1).is_some_and(|n| n.is_punct(";"));
            let head_if = cur.first().is_some_and(|h| h.is_ident("if"));
            if !(next_semi || (head_if && next_else)) {
                out.push(RawStmt {
                    trees: std::mem::take(&mut cur),
                    terminated: false,
                });
            }
        }
        i += 1;
    }
    if !cur.is_empty() {
        out.push(RawStmt {
            trees: cur,
            terminated: false,
        });
    }
    out
}

/// Splits a match group's children into arm bodies. Arms are separated by
/// top-level `,`; the `pat (if guard)? =>` prefix is dropped so only the
/// arm's value expression remains.
fn split_match_arms(children: &[Tree]) -> Vec<Vec<Tree>> {
    let mut arms = Vec::new();
    let mut cur: Vec<Tree> = Vec::new();
    for t in children {
        if t.is_punct(",") {
            if !cur.is_empty() {
                arms.push(std::mem::take(&mut cur));
            }
            continue;
        }
        cur.push(t.clone());
        // A brace-bodied arm (`pat => { … }`) also ends without a comma.
        if matches!(t, Tree::Group { delim: '{', .. }) && cur.iter().any(|x| x.is_punct("=>")) {
            arms.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        arms.push(cur);
    }
    arms.into_iter()
        .map(|arm| {
            let at = arm.iter().rposition(|t| t.is_punct("=>"));
            match at {
                Some(k) => arm[k + 1..].to_vec(),
                None => arm,
            }
        })
        .filter(|a| !a.is_empty())
        .collect()
}

/// Whether the statement contains a `?` outside any nested group.
fn top_level_try(trees: &[Tree]) -> bool {
    trees.iter().any(|t| t.is_punct("?"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{prep, tokenize};

    fn body_of(src: &str) -> Vec<Tree> {
        let p = prep("x.rs", src);
        let trees = build_trees(&tokenize(&p.blank));
        let mut fns = extract_functions(&p, &trees);
        assert!(!fns.is_empty(), "no function found in {src}");
        fns.pop().expect("checked").body
    }

    #[test]
    fn trees_match_delimiters() {
        let p = prep("x.rs", "fn f(a: u32) { g(a); }\n");
        let trees = build_trees(&tokenize(&p.blank));
        // fn, f, (args), {body}
        assert_eq!(trees.len(), 4);
        assert!(matches!(&trees[2], Tree::Group { delim: '(', .. }));
        assert!(matches!(&trees[3], Tree::Group { delim: '{', .. }));
    }

    #[test]
    fn functions_found_in_impls_not_in_tests() {
        let src =
            "impl S {\n    fn a(&self) {}\n}\nfn b() {}\n#[cfg(test)]\nmod t {\n    fn c() {}\n}\n";
        let p = prep("x.rs", src);
        let trees = build_trees(&tokenize(&p.blank));
        let names: Vec<String> = extract_functions(&p, &trees)
            .into_iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) {}\n}\n";
        let p = prep("x.rs", src);
        let trees = build_trees(&tokenize(&p.blank));
        let names: Vec<String> = extract_functions(&p, &trees)
            .into_iter()
            .map(|f| f.name)
            .collect();
        assert_eq!(names, ["with_default"]);
    }

    #[test]
    fn signatures_yield_named_params() {
        let src = "impl S {\n    fn m(&self, ctx: &mut C, m: M, n: usize) -> R { x }\n}\nfn free(mut a: A, b: &B) {}\n";
        let p = prep("x.rs", src);
        let trees = build_trees(&tokenize(&p.blank));
        let fns = extract_functions(&p, &trees);
        let m = fns.iter().find(|f| f.name == "m").expect("method");
        let names: Vec<&str> = m.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["self", "ctx", "m", "n"]);
        let free = fns.iter().find(|f| f.name == "free").expect("free fn");
        assert_eq!(free.params[0].name, "a");
        assert_eq!(free.params[1].name, "b");
    }

    /// The argument count of the call `expr`.
    fn argc(expr: &str) -> usize {
        let trees = build_trees(&tokenize(&prep("x.rs", expr).blank));
        let Some(Tree::Group { children, .. }) = trees.last() else {
            panic!("{expr} is no call");
        };
        split_top_level_commas(children).len()
    }

    #[test]
    fn a_closure_argument_is_one_argument() {
        assert_eq!(argc("run(ctx, |ctx, batch| step(ctx, batch))"), 2);
        assert_eq!(argc("run(move |a, b| a + b, || 0)"), 2);
        assert_eq!(argc("mix(a | b, c)"), 2);
    }

    #[test]
    fn a_trailing_string_literal_is_an_argument() {
        assert_eq!(argc("SimLock::new(\"probe\")"), 1);
        assert_eq!(argc("log(n, \"a, b\")"), 2);
        assert_eq!(argc("push(b, 'x')"), 2);
    }

    #[test]
    fn a_comma_inside_angle_brackets_splits_no_parameter() {
        let p = prep(
            "x.rs",
            "fn f(r: Result<(), E>, m: Map<K, Vec<V>>, n: usize) {}\n",
        );
        let fns = extract_functions(&p, &build_trees(&tokenize(&p.blank)));
        let names: Vec<&str> = fns[0].params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["r", "m", "n"]);
    }

    #[test]
    fn straight_line_cfg_chains_to_exit() {
        let cfg = Cfg::build(&body_of("fn f() { a(); b(); }\n"));
        // entry, exit, a-block, b-block
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![2]);
        assert_eq!(cfg.blocks[2].succs, vec![3]);
        assert_eq!(cfg.blocks[3].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_forms_a_diamond() {
        let cfg = Cfg::build(&body_of(
            "fn f(c: bool) { if c { a(); } else { b(); } done(); }\n",
        ));
        // Both arms reach the statement after the if.
        let head = cfg.blocks[cfg.entry].succs[0];
        assert_eq!(cfg.blocks[head].succs.len(), 2, "{cfg:?}");
    }

    #[test]
    fn try_statement_edges_to_exit() {
        let cfg = Cfg::build(&body_of("fn f() -> R { g()?; h(); Ok(()) }\n"));
        let g = cfg.blocks[cfg.entry].succs[0];
        // The error edge is implicit (has_try), not a succs entry: the
        // dataflow consumer propagates a different state along it.
        assert!(!cfg.blocks[g].succs.contains(&cfg.exit), "{cfg:?}");
        assert!(cfg.blocks[g].stmt.as_ref().expect("stmt").has_try);
        // The tail expression is marked.
        let tail = cfg
            .blocks
            .iter()
            .filter_map(|b| b.stmt.as_ref())
            .find(|s| s.is_tail);
        assert!(tail.is_some(), "{cfg:?}");
    }

    /// The callee names of the statements marked `is_tail`, sorted.
    fn tails(src: &str) -> Vec<String> {
        let cfg = Cfg::build(&body_of(src));
        let mut names: Vec<String> = cfg
            .stmts()
            .filter(|s| s.is_tail)
            .filter_map(|s| s.trees.first()?.ident().map(str::to_string))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn arms_of_a_tail_if_or_match_are_tails() {
        assert_eq!(
            tails("fn f(c: bool) -> M { if c { a() } else if d() { b() } else { g() } }\n"),
            ["a", "b", "g"]
        );
        assert_eq!(
            tails("fn f(x: E) -> M { match x { E::A => a(), E::B => { b() } } }\n"),
            ["a", "b"]
        );
        // Not in tail position: only the body's last statement is.
        assert_eq!(
            tails("fn f(c: bool) -> M { if c { a() } else { b() } done() }\n"),
            ["done"]
        );
        assert!(tails("fn f(c: bool) { if c { a() } else { b() }; }\n").is_empty());
    }

    #[test]
    fn return_statement_terminates_path() {
        let cfg = Cfg::build(&body_of("fn f(c: bool) { if c { return; } a(); }\n"));
        let ret = cfg
            .blocks
            .iter()
            .find(|b| b.stmt.as_ref().is_some_and(|s| s.is_return))
            .expect("return block");
        assert_eq!(ret.succs, vec![cfg.exit]);
    }

    #[test]
    fn loops_have_back_edges() {
        let cfg = Cfg::build(&body_of("fn f() { while go() { step(); } after(); }\n"));
        let head = cfg.blocks[cfg.entry].succs[0];
        let step = cfg.blocks[head]
            .succs
            .iter()
            .copied()
            .find(|&s| {
                cfg.blocks[s]
                    .stmt
                    .as_ref()
                    .is_some_and(|st| st.trees.iter().any(|t| t.is_ident("step")))
            })
            .expect("body block");
        assert!(cfg.blocks[step].succs.contains(&head), "back edge missing");
    }

    #[test]
    fn match_arms_all_reach_join() {
        let cfg = Cfg::build(&body_of(
            "fn f(x: E) { match x { E::A => a(), E::B => { b(); } } done(); }\n",
        ));
        let head = cfg.blocks[cfg.entry].succs[0];
        // Two arms branch from the head.
        assert!(cfg.blocks[head].succs.len() >= 2, "{cfg:?}");
    }
}
