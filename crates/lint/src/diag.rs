//! Diagnostics: codes, rendering, and JSON output.

/// Severity of a diagnostic. Everything the checks emit today is a warning;
/// `--deny-warnings` turns any unsuppressed warning into a failing exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A check finding (or a malformed/unused suppression).
    Warning,
}

/// One finding, addressed `file:line:col` with a per-check code.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Check code: `fault-coverage`, `clock-accounting`,
    /// `bad-suppression`, `unused-suppression`.
    pub code: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// Severity (always [`Severity::Warning`] today).
    pub severity: Severity,
}

impl Diagnostic {
    /// Builds a warning diagnostic.
    pub fn warn(
        code: &str,
        file: &str,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            file: file.to_string(),
            line,
            col,
            message: message.into(),
            severity: Severity::Warning,
        }
    }

    /// `file:line:col: warning[code]: message` — the human-readable form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: warning[{}]: {}",
            self.file, self.line, self.col, self.code, self.message
        )
    }

    /// One JSON object per diagnostic (hand-rolled serializer; no deps).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{}}}",
            json_str(&self.code),
            json_str(&self.file),
            self.line,
            self.col,
            json_str(&self.message)
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sorts diagnostics by file, then line, then column, then code — the stable
/// order golden tests compare against.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.code.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.code.as_str(),
        ))
    });
}
