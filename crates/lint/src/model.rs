//! A lightweight item model built from the token stream.
//!
//! This is deliberately not a full Rust parser. The checks need four things
//! and the model provides exactly those:
//!
//! 1. **Functions** with their names, enclosing impl/trait type, return-type
//!    idents, and whether they are test code (`#[test]`, or inside a
//!    `#[cfg(test)]` module).
//! 2. **Calls** inside each body, in source order, with their path segments
//!    and identifier arguments — enough to build intra-file call graphs.
//!    Macro invocations are skipped whole: their arguments are token soup, so
//!    a call inside `format!(…)` must not count.
//! 3. **Suppressions** parsed from `// blazeit-lint: allow(...) -- reason`
//!    comments.
//! 4. Enough error tolerance to walk any file `rustc` already accepted.

use crate::lexer::{lex, Comment, TokKind, Token};

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct Event {
    /// The `::`-separated segments leading to the callee (`path.last()` is the
    /// callee name); for method calls only the method name.
    pub path: Vec<String>,
    /// Identifier arguments at the call's own paren depth
    /// (`inject(FaultSite::StoreRead)` → `["FaultSite", "StoreRead"]`).
    pub ident_args: Vec<String>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
}

/// One parsed function (free function, inherent/trait method, or nested fn).
#[derive(Debug, Clone)]
pub struct Function {
    /// Bare name.
    pub name: String,
    /// `Type::name` when inside `impl Type` / `impl Trait for Type` / `trait Type`.
    pub qualified: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// `true` for `#[test]` functions and anything inside a `#[cfg(test)]` module.
    pub is_test: bool,
    /// Identifiers appearing in the return type (after `->`, before the body).
    pub ret_idents: Vec<String>,
    /// Body calls in source order (empty for bodiless trait methods).
    pub events: Vec<Event>,
}

impl Function {
    /// Direct calls to `name` (any receiver shape).
    pub fn calls<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.path.last().is_some_and(|n| n == name))
    }

    /// `true` if the body contains a call to `name`.
    pub fn calls_any(&self, name: &str) -> bool {
        self.calls(name).next().is_some()
    }
}

/// A parsed `// blazeit-lint: allow(check) -- reason` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Check codes the directive names (comma-separated in source).
    pub checks: Vec<String>,
    /// Mandatory justification after `--` (empty string ⇒ invalid directive).
    pub reason: String,
    /// `true` for `allow-file(...)`, which covers the whole file.
    pub file_scope: bool,
    /// 1-based line of the comment.
    pub line: u32,
    /// Last line of the comment block (directive plus adjacent same-column
    /// continuation comments, whose text extends the reason).
    pub end_line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// `true` once a diagnostic matched (used by the unused-suppression check).
    pub used: std::cell::Cell<bool>,
    /// Malformed-directive message, if the directive could not be parsed.
    pub error: Option<String>,
}

impl Suppression {
    /// Whether this directive covers a diagnostic at `line` with code `code`.
    /// Line-scoped directives cover their own block (trailing comments) and
    /// the line after it (standalone comments above the offending expression).
    pub fn covers(&self, line: u32, code: &str) -> bool {
        if !self.checks.iter().any(|c| c == code) {
            return false;
        }
        self.file_scope || (line >= self.line && line <= self.end_line + 1)
    }
}

/// Everything the checks need to know about one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Path as given to [`parse_file`] (repo-relative in practice).
    pub path: String,
    /// All functions, in source order (nested functions appear after their parent).
    pub functions: Vec<Function>,
    /// Parsed suppression directives.
    pub suppressions: Vec<Suppression>,
}

/// Parses `src` (the contents of `path`) into a [`FileModel`].
pub fn parse_file(path: &str, src: &str) -> FileModel {
    let lexed = lex(src);
    let suppressions = parse_suppressions(&lexed.comments);
    let mut functions = Vec::new();
    let mut parser = Parser { toks: &lexed.tokens, pos: 0 };
    parser.items(&mut functions, &ModCtx::default());
    FileModel { path: path.to_string(), functions, suppressions }
}

const DIRECTIVE: &str = "blazeit-lint:";

fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (ci, c) in comments.iter().enumerate() {
        let Some(at) = c.text.find(DIRECTIVE) else { continue };
        let mut rest = c.text[at + DIRECTIVE.len()..].trim().to_string();
        // Adjacent same-column comments without their own directive continue
        // the reason, so justifications can wrap across lines.
        let mut end_line = c.line;
        for c2 in &comments[ci + 1..] {
            if c2.line != end_line + 1 || c2.col != c.col || c2.text.contains(DIRECTIVE) {
                break;
            }
            rest.push(' ');
            rest.push_str(c2.text.trim());
            end_line = c2.line;
        }
        let rest = rest.as_str();
        let mut sup = Suppression {
            checks: Vec::new(),
            reason: String::new(),
            file_scope: false,
            line: c.line,
            end_line,
            col: c.col,
            used: std::cell::Cell::new(false),
            error: None,
        };
        let body = if let Some(b) = rest.strip_prefix("allow-file") {
            sup.file_scope = true;
            b
        } else if let Some(b) = rest.strip_prefix("allow") {
            b
        } else {
            sup.error = Some(format!(
                "unknown directive `{}` (expected `allow(<check>) -- <reason>` or \
                 `allow-file(<check>) -- <reason>`)",
                rest.split_whitespace().next().unwrap_or("")
            ));
            out.push(sup);
            continue;
        };
        let body = body.trim_start();
        let parsed = body.strip_prefix('(').and_then(|b| b.split_once(')'));
        let Some((list, tail)) = parsed else {
            sup.error = Some("malformed directive: expected `(<check>[, <check>…])`".into());
            out.push(sup);
            continue;
        };
        sup.checks =
            list.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        if sup.checks.is_empty() {
            sup.error = Some("directive names no checks".into());
        } else if let Some(unknown) = sup.checks.iter().find(|c| !known_check(c)) {
            sup.error = Some(format!("unknown check `{unknown}` in directive"));
        }
        match tail.trim_start().strip_prefix("--") {
            Some(reason) => {
                let reason = reason.trim().trim_end_matches("*/").trim();
                if reason.is_empty() {
                    sup.error.get_or_insert_with(|| {
                        "suppression reason is mandatory: `-- <why this is safe>`".into()
                    });
                } else {
                    sup.reason = reason.to_string();
                }
            }
            None => {
                sup.error.get_or_insert_with(|| {
                    "suppression reason is mandatory: `-- <why this is safe>`".into()
                });
            }
        }
        out.push(sup);
    }
    out
}

/// The checks a directive may name. Panic-freedom and the sync shim are
/// clippy's (`[workspace.lints.clippy]`, `clippy.toml`), suppressed with
/// `#[expect(…, reason = "…")]`, and the lock order is a type
/// (`blazeit_core::lockorder::Lock`), so their old codes are unknown here.
fn known_check(name: &str) -> bool {
    matches!(name, "fault-coverage" | "clock-accounting")
}

#[derive(Default, Clone)]
struct ModCtx {
    is_test: bool,
    self_type: Option<String>,
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

/// Attribute summary for the item that follows.
#[derive(Default)]
struct Attrs {
    is_test_fn: bool,
    is_cfg_test: bool,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    /// Skips a balanced delimiter group; `self.pos` must be at the opener.
    fn skip_group(&mut self) {
        let Some(open) = self.bump() else { return };
        if open.kind != TokKind::Open {
            return;
        }
        let mut depth = 1u32;
        while depth > 0 {
            match self.bump() {
                Some(t) if t.kind == TokKind::Open => depth += 1,
                Some(t) if t.kind == TokKind::Close => depth -= 1,
                Some(_) => {}
                None => return,
            }
        }
    }

    /// Consumes a run of `#[…]` / `#![…]` attributes, summarizing them.
    fn attrs(&mut self) -> Attrs {
        let mut out = Attrs::default();
        while self.peek().is_some_and(|t| t.is_punct("#")) {
            self.bump();
            if self.peek().is_some_and(|t| t.is_punct("!")) {
                self.bump();
            }
            let start = self.pos;
            self.skip_group();
            let inner = &self.toks[start..self.pos];
            let idents: Vec<&str> = inner
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            if idents.first() == Some(&"test") || idents.first() == Some(&"tokio") {
                out.is_test_fn = true;
            }
            // `#[cfg(test)]` / `#[cfg(all(test, …))]` mark test-only items;
            // `not(test)` and `any(test, …)` can still compile into production,
            // so they do not.
            if idents.first() == Some(&"cfg")
                && idents.contains(&"test")
                && !idents.contains(&"not")
                && !idents.contains(&"any")
            {
                out.is_cfg_test = true;
            }
        }
        out
    }

    /// Walks items at the current level until `}` or EOF.
    fn items(&mut self, functions: &mut Vec<Function>, ctx: &ModCtx) {
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Close {
                return;
            }
            let attrs = self.attrs();
            let Some(t) = self.peek() else { return };
            match t.text.as_str() {
                "mod" if t.kind == TokKind::Ident => {
                    self.bump();
                    self.bump(); // module name
                    match self.peek() {
                        Some(t) if t.opens('{') => {
                            self.bump();
                            let nested = ModCtx {
                                is_test: ctx.is_test || attrs.is_cfg_test,
                                self_type: None,
                            };
                            self.items(functions, &nested);
                            self.bump(); // `}`
                        }
                        _ => {
                            self.bump(); // `;`
                        }
                    }
                }
                "impl" | "trait" if t.kind == TokKind::Ident => {
                    let is_impl = t.text == "impl";
                    self.bump();
                    let self_type = self.impl_self_type(is_impl);
                    match self.peek() {
                        Some(t) if t.opens('{') => {
                            self.bump();
                            let nested =
                                ModCtx { is_test: ctx.is_test || attrs.is_cfg_test, self_type };
                            self.items(functions, &nested);
                            self.bump();
                        }
                        _ => {
                            self.bump();
                        }
                    }
                }
                "fn" if t.kind == TokKind::Ident => {
                    self.function(functions, ctx, &attrs);
                }
                _ => {
                    // Any other item: consume one token; groups are skipped
                    // whole so stray `fn`-like idents inside const expressions
                    // or type positions can't confuse the walker.
                    let t = self.bump().unwrap();
                    if t.kind == TokKind::Open {
                        self.pos -= 1;
                        self.skip_group();
                    }
                }
            }
        }
    }

    /// After `impl`/`trait`: extract the self-type name (last path segment of
    /// the implemented-for type) and stop at `{`, `;`, or EOF.
    fn impl_self_type(&mut self, is_impl: bool) -> Option<String> {
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut after_for = !is_impl; // `trait Name` — first top-level ident wins
        let mut found_for = false;
        while let Some(t) = self.peek() {
            if angle == 0 && (t.opens('{') || t.is_punct(";") || t.is_ident("where")) {
                break;
            }
            match t.text.as_str() {
                "<" if t.kind == TokKind::Punct => angle += 1,
                ">" if t.kind == TokKind::Punct => angle -= 1,
                "for" if t.kind == TokKind::Ident && angle == 0 => {
                    found_for = true;
                    last_ident = None;
                    after_for = true;
                }
                _ if t.kind == TokKind::Ident
                    && !t.is_keyword()
                    && angle == 0
                    && (after_for || !found_for) =>
                {
                    last_ident = Some(t.text.clone());
                }
                _ => {}
            }
            self.bump();
        }
        last_ident
    }

    fn function(&mut self, functions: &mut Vec<Function>, ctx: &ModCtx, attrs: &Attrs) {
        let fn_tok = self.bump().unwrap(); // `fn`
        let Some(name_tok) = self.bump() else { return };
        let name = name_tok.text.clone();
        // Skip generics, then the parameter list.
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            if angle == 0 && t.opens('(') {
                break;
            }
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            self.bump();
        }
        self.skip_group(); // parameters
                           // Return type + where clause: collect idents until body `{` or `;`.
        let mut ret_idents = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.opens('{') || t.is_punct(";") => break,
                Some(t) => {
                    if t.kind == TokKind::Ident && !t.is_keyword() {
                        ret_idents.push(t.text.clone());
                    }
                    self.bump();
                }
            }
        }
        let mut func = Function {
            qualified: match &ctx.self_type {
                Some(ty) => format!("{ty}::{name}"),
                None => name.clone(),
            },
            name,
            line: fn_tok.line,
            col: fn_tok.col,
            is_test: ctx.is_test || attrs.is_test_fn || attrs.is_cfg_test,
            ret_idents,
            events: Vec::new(),
        };
        if self.peek().is_some_and(|t| t.opens('{')) {
            self.bump();
            self.body(&mut func, functions, ctx);
        } else {
            self.bump(); // `;`
        }
        functions.push(func);
    }

    /// Walks a function body (cursor just past its `{`), collecting calls
    /// until the matching `}` is consumed. Nested `fn` items are parsed as
    /// separate functions; their calls do not leak into the parent.
    fn body(&mut self, func: &mut Function, functions: &mut Vec<Function>, ctx: &ModCtx) {
        let mut depth = 1u32;
        while depth > 0 {
            let Some(t) = self.peek() else { return };
            match t.kind {
                TokKind::Ident if t.text == "fn" => {
                    self.function(functions, ctx, &Attrs::default());
                }
                TokKind::Ident if !t.is_keyword() => self.call_or_macro(func),
                TokKind::Open if t.opens('{') => {
                    depth += 1;
                    self.bump();
                }
                TokKind::Close if t.closes('}') => {
                    depth -= 1;
                    self.bump();
                }
                TokKind::Punct if t.text == "#" => {
                    // Attribute inside a body (e.g. on a statement or match arm).
                    self.bump();
                    if self.peek().is_some_and(|t| t.is_punct("!")) {
                        self.bump();
                    }
                    if self.peek().is_some_and(|t| t.kind == TokKind::Open) {
                        self.skip_group();
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// At a non-keyword identifier inside a body: classify it as a call (one
    /// event), a macro invocation (skipped whole, no event), or plain usage.
    fn call_or_macro(&mut self, func: &mut Function) {
        // Collect the longest `a::b::c` path ending here.
        let mut path = vec![self.toks[self.pos].text.clone()];
        let mut end = self.pos + 1;
        while self.toks.get(end).is_some_and(|t| t.is_punct("::"))
            && self.toks.get(end + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            path.push(self.toks[end + 1].text.clone());
            end += 2;
        }
        let name_tok = &self.toks[end - 1];
        let next = self.toks.get(end);
        // Macro?
        if path.len() == 1
            && next.is_some_and(|t| t.is_punct("!"))
            && self.toks.get(end + 1).is_some_and(|t| t.kind == TokKind::Open)
        {
            self.pos = end + 1;
            self.skip_group();
            return;
        }
        // Call?
        if next.is_some_and(|t| t.opens('(')) {
            func.events.push(Event {
                path,
                ident_args: self.ident_args(end),
                line: name_tok.line,
                col: name_tok.col,
            });
            self.pos = end; // continue into the argument list for nested calls
            self.bump(); // consume `(` so the group is walked, not skipped
            return;
        }
        self.pos = end;
    }

    /// The identifier arguments at the top level of the group opening at
    /// `open`, without consuming anything.
    fn ident_args(&self, open: usize) -> Vec<String> {
        let mut idents = Vec::new();
        let mut depth = 0u32;
        for t in self.toks.get(open..).unwrap_or_default() {
            match t.kind {
                TokKind::Open => depth += 1,
                TokKind::Close => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident if depth == 1 => idents.push(t.text.clone()),
                _ => {}
            }
        }
        idents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        parse_file("test.rs", src)
    }

    #[test]
    fn functions_with_impl_and_module_context() {
        let m = model(
            "impl Foo { fn a(&self) {} }\n\
             impl std::fmt::Display for Bar { fn fmt(&self) {} }\n\
             #[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }\n\
             fn free() -> Result<u8, StoreError> { Ok(1) }",
        );
        let names: Vec<&str> = m.functions.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["Foo::a", "Bar::fmt", "helper", "t", "free"]);
        assert!(m.functions[2].is_test && m.functions[3].is_test);
        assert!(!m.functions[4].is_test);
        assert!(m.functions[4].ret_idents.contains(&"StoreError".to_string()));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let m = model("#[cfg(not(test))] mod prod { fn f() { x.unwrap(); } }");
        assert!(!m.functions[0].is_test);
    }

    #[test]
    fn calls_and_skipped_macro_groups() {
        let m = model(
            "fn f(v: &[u8]) { let g = inject(FaultSite::StoreRead, &m); \
             self.helper(); std::fs::read(p); drop(g); panic!(\"{}\", hidden()); \
             let x = v[0]; vec![inside(), 2]; }",
        );
        let f = &m.functions[0];
        let calls: Vec<String> = f.events.iter().map(|e| e.path.join("::")).collect();
        assert_eq!(calls, vec!["inject", "helper", "std::fs::read", "drop"]);
        let inject = f.calls("inject").next().unwrap();
        assert_eq!(inject.ident_args, vec!["FaultSite", "StoreRead", "m"]);
        assert_eq!((inject.line, inject.col), (1, 26));
        assert_eq!(f.calls("drop").next().unwrap().ident_args, vec!["g"]);
        assert!(!f.calls_any("hidden") && !f.calls_any("inside"), "macro arguments are skipped");
    }

    #[test]
    fn suppression_parsing() {
        let m = model(
            "// blazeit-lint: allow(fault-coverage) -- bootstrap path\n\
             // blazeit-lint: allow-file(clock-accounting) -- test-only scoring file\n\
             // blazeit-lint: allow(clock-accounting)\n\
             // blazeit-lint: allow(bogus-check) -- whatever\n\
             fn f() {}",
        );
        assert_eq!(m.suppressions.len(), 4);
        assert!(m.suppressions[0].error.is_none());
        assert!(m.suppressions[0].covers(1, "fault-coverage"));
        assert!(m.suppressions[0].covers(2, "fault-coverage"));
        assert!(!m.suppressions[0].covers(3, "fault-coverage"));
        assert!(m.suppressions[1].file_scope);
        assert!(m.suppressions[1].covers(999, "clock-accounting"));
        assert!(!m.suppressions[1].covers(999, "fault-coverage"), "a file allow names its checks");
        assert!(m.suppressions[2].error.is_some(), "missing reason is an error");
        assert!(m.suppressions[3].error.is_some(), "unknown check is an error");
    }

    #[test]
    fn nested_fn_events_do_not_leak() {
        let m = model("fn outer() { fn inner() { x.unwrap(); } inner(); }");
        assert_eq!(m.functions.len(), 2);
        let inner = m.functions.iter().find(|f| f.name == "inner").unwrap();
        let outer = m.functions.iter().find(|f| f.name == "outer").unwrap();
        assert!(inner.calls_any("unwrap"));
        assert!(!outer.calls_any("unwrap"));
        assert!(outer.calls_any("inner"));
    }
}
