//! A lightweight item/block model built from the token stream.
//!
//! This is deliberately not a full Rust parser. The checks need four things
//! and the model provides exactly those:
//!
//! 1. **Functions** with their names, enclosing impl/trait type, module path,
//!    signature idents (for return-type matching), and whether they are test
//!    code (`#[test]`, or inside a `#[cfg(test)]` module).
//! 2. **Events** inside each body, in source order: calls (with their path
//!    segments and receiver shape), `let` bindings, and block open/close —
//!    enough to replay lock acquisition scopes and build call graphs. Macro
//!    invocations are skipped whole: their arguments are token soup, so a
//!    `lock_ordered` call or a brace inside `format!(…)` must not count.
//! 3. **Suppressions** parsed from `// blazeit-lint: allow(...) -- reason`
//!    comments.
//! 4. Enough error tolerance to walk any file `rustc` already accepted.

use crate::lexer::{lex, Comment, TokKind, Token};

/// How a call names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// Free or path call: `foo(..)`, `a::b::foo(..)`, `Type::foo(..)`.
    Path,
    /// Method on `self`: `self.foo(..)`.
    SelfMethod,
    /// Method on any other expression: `x.foo(..)`, `x.y().foo(..)`.
    Method,
}

/// One interesting occurrence inside a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A call expression. `path` holds the `::`-separated segments leading to
    /// the callee (last element is the callee name); for method calls it holds
    /// only the method name.
    Call {
        /// Path segments; `path.last()` is the callee name.
        path: Vec<String>,
        /// Receiver shape.
        receiver: Receiver,
        /// `let` binding name the call's result is assigned to, if the call is
        /// the first call of a `let <name> = …;` statement.
        binding: Option<String>,
        /// First string-literal argument at the call's own paren depth, if any
        /// (`lock_ordered(RANK_X, "name", ..)` → `Some("name")`).
        str_arg: Option<String>,
        /// First `RANK_*`-shaped identifier argument, if any.
        rank_arg: Option<String>,
        /// Identifier arguments at the call's own paren depth (for `drop(g)`).
        ident_args: Vec<String>,
        /// Number of arguments (the receiver of a method call not counted).
        nargs: usize,
        /// 1-based line.
        line: u32,
        /// 1-based column of the callee name.
        col: u32,
        /// Brace depth (relative to the body) where the call occurs.
        depth: u32,
    },
    /// A block opened (`{`).
    OpenBlock,
    /// A block closed (`}`).
    CloseBlock,
}

/// One parsed function (free function, inherent/trait method, or nested fn).
#[derive(Debug, Clone)]
pub struct Function {
    /// Bare name.
    pub name: String,
    /// `Type::name` when inside `impl Type` / `impl Trait for Type` / `trait Type`.
    pub qualified: String,
    /// Enclosing impl/trait type, if any.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// `true` for `#[test]` functions and anything inside a `#[cfg(test)]` module.
    pub is_test: bool,
    /// `true` when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Number of parameters, the `self` receiver not counted.
    pub arity: usize,
    /// Identifiers appearing in the return type (after `->`, before the body).
    pub ret_idents: Vec<String>,
    /// Body events in source order (empty for bodiless trait methods).
    pub events: Vec<Event>,
}

impl Function {
    /// Direct calls to `name` (any receiver shape).
    pub fn calls<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| match e {
            Event::Call { path, .. } => path.last().is_some_and(|n| n == name),
            _ => false,
        })
    }

    /// `true` if the body contains a call to `name`.
    pub fn calls_any(&self, name: &str) -> bool {
        self.calls(name).next().is_some()
    }
}

/// Whether a call site (receiver shape + argument count) is compatible with a
/// function definition's signature. Call-graph construction uses this to
/// reject name-collision edges — without it, a lock-free `RetryPolicy::run`
/// would inherit the lock summary of every other `run` in the crate.
pub fn signature_matches(receiver: &Receiver, nargs: usize, def: &Function) -> bool {
    match receiver {
        Receiver::SelfMethod | Receiver::Method => def.has_self && def.arity == nargs,
        // `free_fn(a, b)`, `Type::assoc(a, b)`, or UFCS `Type::method(&x, a, b)`.
        Receiver::Path => def.arity == nargs || (def.has_self && def.arity + 1 == nargs),
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
/// `#[expect(…, reason = "…")]`, so their old codes are unknown here.
fn known_check(name: &str) -> bool {
    matches!(name, "lock-order" | "fault-coverage" | "clock-accounting")
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
        let (has_self, arity) = self.params();
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
            self_type: ctx.self_type.clone(),
            line: fn_tok.line,
            col: fn_tok.col,
            is_test: ctx.is_test || attrs.is_test_fn || attrs.is_cfg_test,
            has_self,
            arity,
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

    /// Consumes the parameter group (cursor at its `(`), returning whether the
    /// first parameter is a `self` receiver and the count of the remaining
    /// parameters. Parameters are separated by commas at delimiter depth 1
    /// outside generic angle brackets (`HashMap<K, V>` is one parameter; this
    /// is a type position, so every `<` opens generics).
    fn params(&mut self) -> (bool, usize) {
        if !self.peek().is_some_and(|t| t.opens('(')) {
            self.bump();
            return (false, 0);
        }
        let start = self.pos;
        self.skip_group();
        let inner = &self.toks[start + 1..(self.pos - 1).max(start + 1)];
        let mut has_self = false;
        for t in inner.iter().take(3) {
            if t.is_ident("self") {
                has_self = true;
                break;
            }
            if !(t.is_punct("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime) {
                break;
            }
        }
        let mut params = 0usize;
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut seen_any = false;
        for t in inner {
            match t.kind {
                TokKind::Open => depth += 1,
                TokKind::Close => depth -= 1,
                TokKind::Punct if depth == 0 => match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "," if angle == 0 => {
                        params += 1;
                        seen_any = false;
                        continue;
                    }
                    _ => {}
                },
                _ => {}
            }
            seen_any = true;
        }
        if seen_any {
            params += 1; // final parameter without a trailing comma
        }
        (has_self, params.saturating_sub(has_self as usize))
    }

    /// Walks a function body (cursor just past its `{`), collecting events
    /// until the matching `}` is consumed. Nested `fn` items are parsed as
    /// separate functions; their events do not leak into the parent.
    fn body(&mut self, func: &mut Function, functions: &mut Vec<Function>, ctx: &ModCtx) {
        let mut depth = 1u32;
        // The `let`-binding name of the current statement, consumed by the
        // first call event of the statement.
        let mut pending_let: Option<String> = None;
        let mut let_armed = false;
        while depth > 0 {
            let Some(t) = self.peek() else { return };
            match t.kind {
                TokKind::Ident if t.text == "fn" => {
                    let attrs = Attrs::default();
                    self.function(functions, ctx, &attrs);
                    continue;
                }
                TokKind::Ident if t.text == "let" => {
                    // `let [mut] name =` — anything fancier (patterns) simply
                    // leaves no binding, which only costs drop-tracking precision.
                    let mut look = self.pos + 1;
                    if self.toks.get(look).is_some_and(|t| t.is_ident("mut")) {
                        look += 1;
                    }
                    if let (Some(n), Some(eq)) = (self.toks.get(look), self.toks.get(look + 1)) {
                        if n.kind == TokKind::Ident && !n.is_keyword() && eq.is_punct("=") {
                            pending_let = Some(n.text.clone());
                            let_armed = true;
                        }
                    }
                    self.bump();
                    continue;
                }
                TokKind::Ident if !t.is_keyword() => {
                    self.call_or_macro(func, &mut pending_let, depth);
                    continue;
                }
                TokKind::Open if t.opens('{') => {
                    depth += 1;
                    func.events.push(Event::OpenBlock);
                    self.bump();
                    continue;
                }
                TokKind::Close if t.closes('}') => {
                    depth -= 1;
                    if depth > 0 {
                        func.events.push(Event::CloseBlock);
                    }
                    self.bump();
                    continue;
                }
                TokKind::Punct if t.text == ";" => {
                    if let_armed {
                        pending_let = None;
                        let_armed = false;
                    }
                    self.bump();
                    continue;
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
                    continue;
                }
                _ => {
                    self.bump();
                    continue;
                }
            }
        }
    }

    /// At a non-keyword identifier inside a body: classify it as a call (one
    /// event), a macro invocation (skipped whole, no event), or plain usage.
    fn call_or_macro(&mut self, func: &mut Function, pending_let: &mut Option<String>, depth: u32) {
        let start = self.pos;
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
            let receiver = if start > 0 && self.toks[start - 1].is_punct(".") {
                if start > 1 && self.toks[start - 2].is_ident("self") {
                    Receiver::SelfMethod
                } else {
                    Receiver::Method
                }
            } else {
                Receiver::Path
            };
            let (str_arg, rank_arg, ident_args, nargs) = self.scan_args(end);
            func.events.push(Event::Call {
                path,
                receiver,
                binding: pending_let.take(),
                str_arg,
                rank_arg,
                ident_args,
                nargs,
                line: name_tok.line,
                col: name_tok.col,
                depth,
            });
            self.pos = end; // continue into the argument list for nested events
            self.bump(); // consume `(` without emitting OpenBlock
            return;
        }
        self.pos = end;
    }

    /// Peeks into the argument group starting at `open` (which must be `(`),
    /// collecting top-level string/`RANK_*`/identifier arguments and the
    /// argument count, without consuming anything.
    ///
    /// The argument count separates on commas at depth 1, skipping commas
    /// inside closure parameter lists (`sort_by(|a, b| …)`) and inside
    /// turbofish generics (`collect::<HashMap<K, V>>()`); a bare `<` in
    /// expression position is a comparison, not generics, so only `::<` opens
    /// angle tracking.
    fn scan_args(&self, open: usize) -> (Option<String>, Option<String>, Vec<String>, usize) {
        let mut str_arg = None;
        let mut rank_arg = None;
        let mut ident_args = Vec::new();
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut in_closure_params = false;
        let mut commas = 0usize;
        let mut seen_any = false;
        let mut i = open;
        while let Some(t) = self.toks.get(i) {
            match t.kind {
                TokKind::Open => depth += 1,
                TokKind::Close => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Str if depth == 1 && str_arg.is_none() => {
                    str_arg = Some(t.text.clone());
                }
                TokKind::Ident if depth == 1 => {
                    if t.text.starts_with("RANK_") && rank_arg.is_none() {
                        rank_arg = Some(t.text.clone());
                    }
                    ident_args.push(t.text.clone());
                }
                _ => {}
            }
            if depth == 1 {
                match t.text.as_str() {
                    "|" if t.kind == TokKind::Punct => {
                        if in_closure_params {
                            in_closure_params = false;
                        } else {
                            // Closure-opening `|` follows a comma, the call's
                            // own `(`, or `move`; bitwise-or follows an operand.
                            let prev = &self.toks[i - 1];
                            in_closure_params =
                                prev.is_punct(",") || prev.opens('(') || prev.is_ident("move");
                        }
                    }
                    "<" if t.kind == TokKind::Punct && self.toks[i - 1].is_punct("::") => {
                        angle += 1;
                    }
                    "<" if t.kind == TokKind::Punct && angle > 0 => angle += 1,
                    ">" if t.kind == TokKind::Punct && angle > 0 => angle -= 1,
                    "," if t.kind == TokKind::Punct
                        && angle == 0
                        && !in_closure_params
                        && i > open =>
                    {
                        commas += 1;
                        seen_any = false;
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            if i > open {
                seen_any = true;
            }
            i += 1;
        }
        let nargs = commas + seen_any as usize;
        (str_arg, rank_arg, ident_args, nargs)
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
            "fn f(v: &[u8]) { let g = lock_ordered(RANK_VIDEO, \"video\", &m); \
             self.helper(); std::fs::read(p); drop(g); panic!(\"{}\", hidden()); \
             let x = v[0]; vec![inside(), 2]; }",
        );
        let f = &m.functions[0];
        let calls: Vec<String> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { path, .. } => Some(path.join("::")),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec!["lock_ordered", "helper", "std::fs::read", "drop"]);
        let lock = f.calls("lock_ordered").next().unwrap();
        let Event::Call { binding, str_arg, rank_arg, .. } = lock else { unreachable!() };
        assert_eq!(binding.as_deref(), Some("g"));
        assert_eq!(str_arg.as_deref(), Some("video"));
        assert_eq!(rank_arg.as_deref(), Some("RANK_VIDEO"));
        let drops: Vec<&Event> = f.calls("drop").collect();
        let Event::Call { ident_args, .. } = drops[0] else { unreachable!() };
        assert_eq!(ident_args, &vec!["g".to_string()]);
        assert!(!f.calls_any("hidden") && !f.calls_any("inside"), "macro arguments are skipped");
    }

    #[test]
    fn suppression_parsing() {
        let m = model(
            "// blazeit-lint: allow(lock-order) -- guard dropped above\n\
             // blazeit-lint: allow-file(fault-coverage) -- bootstrap-only file\n\
             // blazeit-lint: allow(clock-accounting)\n\
             // blazeit-lint: allow(bogus-check) -- whatever\n\
             fn f() {}",
        );
        assert_eq!(m.suppressions.len(), 4);
        assert!(m.suppressions[0].error.is_none());
        assert!(m.suppressions[0].covers(1, "lock-order"));
        assert!(m.suppressions[0].covers(2, "lock-order"));
        assert!(!m.suppressions[0].covers(3, "lock-order"));
        assert!(m.suppressions[1].file_scope);
        assert!(m.suppressions[1].covers(999, "fault-coverage"));
        assert!(!m.suppressions[1].covers(999, "lock-order"), "a file allow names its checks");
        assert!(m.suppressions[2].error.is_some(), "missing reason is an error");
        assert!(m.suppressions[3].error.is_some(), "unknown check is an error");
    }

    #[test]
    fn let_binding_attaches_only_to_first_call() {
        let m = model("fn f() { let a = outer(inner()); }");
        let f = &m.functions[0];
        let bindings: Vec<Option<String>> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { binding, .. } => Some(binding.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(bindings, vec![Some("a".to_string()), None]);
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
