//! The FrameQL abstract syntax tree.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An item in the `SELECT` list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `SELECT *`
    Star,
    /// A plain column reference (`timestamp`, `class`, ...).
    Column(String),
    /// `FCOUNT(*)` — frame-averaged count (Table 2).
    FCount,
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(DISTINCT column)`.
    CountDistinct(String),
    /// `SUM(expr)`.
    Sum(Box<Expr>),
    /// `AVG(expr)`.
    Avg(Box<Expr>),
}

/// Binary operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// Whether the operator is a comparison (as opposed to a boolean connective).
    pub fn is_comparison(&self) -> bool {
        !matches!(self, BinaryOp::And | BinaryOp::Or)
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// A FrameQL expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A string literal.
    StringLit(String),
    /// A numeric literal.
    Number(f64),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A function call: a UDF (`redness(content)`, `area(mask)`) or an aggregate inside
    /// `HAVING` (`SUM(class='bus')`, `COUNT(*)`).
    FunctionCall {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `*` as a function argument (`COUNT(*)`).
    Star,
}

impl Expr {
    /// Convenience constructor for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// Walks the expression tree, invoking `visit` on every node.
    pub fn walk(&self, visit: &mut impl FnMut(&Expr)) {
        visit(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk(visit);
                right.walk(visit);
            }
            Expr::FunctionCall { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
            _ => {}
        }
    }

    /// Splits a conjunctive expression into its top-level AND-ed conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn collect<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary { left, op: BinaryOp::And, right } => {
                    collect(left, out);
                    collect(right, out);
                }
                other => out.push(other),
            }
        }
        collect(self, &mut out);
        out
    }
}

/// The `FROM` clause of a query: which registered videos the query spans.
///
/// BlazeIt's deployments are many-camera installations, so FrameQL lets one query
/// address several streams at once:
///
/// * `FROM taipei` — one video (the common case).
/// * `FROM taipei, amsterdam` — an explicit list; results are merged across them.
/// * `FROM *` — every video registered in the catalog at prepare time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FromClause {
    /// Explicitly named videos, in query order (always at least one).
    Videos(Vec<String>),
    /// `FROM *`: every registered video.
    All,
}

impl FromClause {
    /// A `FROM` clause naming exactly one video.
    pub fn single(name: impl Into<String>) -> FromClause {
        FromClause::Videos(vec![name.into()])
    }

    /// The video name, when the clause names exactly one.
    pub fn as_single(&self) -> Option<&str> {
        match self {
            FromClause::Videos(names) => match names.as_slice() {
                [only] => Some(only),
                _ => None,
            },
            _ => None,
        }
    }

    /// Whether this is `FROM *` (every registered video).
    pub fn is_all(&self) -> bool {
        matches!(self, FromClause::All)
    }

    /// The explicitly named videos (empty for `FROM *`).
    pub fn names(&self) -> &[String] {
        match self {
            FromClause::Videos(names) => names,
            FromClause::All => &[],
        }
    }
}

impl fmt::Display for FromClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromClause::Videos(names) => f.write_str(&names.join(", ")),
            FromClause::All => f.write_str("*"),
        }
    }
}

/// Error / accuracy constraints attached to a query (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AccuracyConstraints {
    /// `ERROR WITHIN e` — absolute error tolerance for aggregates.
    pub error_within: Option<f64>,
    /// `[AT] CONFIDENCE c%` — confidence level in `(0, 1)`.
    pub confidence: Option<f64>,
    /// `FPR WITHIN p` — allowed false positive rate.
    pub fpr_within: Option<f64>,
    /// `FNR WITHIN p` — allowed false negative rate.
    pub fnr_within: Option<f64>,
}

/// A parsed FrameQL query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Whether the query was prefixed with `EXPLAIN`: the engine renders the chosen
    /// plan instead of executing it (and charges nothing to the simulated clock).
    pub explain: bool,
    /// Whether the query was prefixed with `EXPLAIN ANALYZE` (implies
    /// `explain`): the engine *executes* the query under a trace collector and
    /// renders the actual span tree — per-stage wall time, simulated cost, and
    /// call counts — instead of just the chosen plan.
    pub analyze: bool,
    /// The `SELECT` list.
    pub select: Vec<SelectItem>,
    /// The videos (relations) the query spans.
    pub from: FromClause,
    /// The `WHERE` predicate, if any.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` columns.
    pub group_by: Vec<String>,
    /// The `HAVING` predicate, if any.
    pub having: Option<Expr>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
    /// `GAP g` — minimum spacing (in frames) between returned frames.
    pub gap: Option<u64>,
    /// Error / accuracy constraints.
    pub accuracy: AccuracyConstraints,
    /// `WINDOW n FRAMES` — a continuous query's sliding-window width: each tick
    /// aggregates over the most recent `n` ingested frames. `None` means the
    /// whole stream so far. Only meaningful under
    /// `Session::subscribe`; one-shot execution rejects it.
    pub window: Option<u64>,
    /// `EVERY n FRAMES` — a continuous query's tick interval: an update is
    /// emitted each time `n` more frames have been ingested. Only meaningful
    /// under `Session::subscribe`; one-shot execution rejects it.
    pub every: Option<u64>,
}

impl Query {
    /// Whether the select list is exactly `SELECT *`.
    #[expect(
        clippy::indexing_slicing,
        reason = "the && short-circuit checks select.len() == 1 before indexing slot 0"
    )]
    pub fn is_select_star(&self) -> bool {
        self.select.len() == 1 && matches!(self.select[0], SelectItem::Star)
    }

    /// Whether any select item is an aggregate (`FCOUNT`, `COUNT`, `SUM`, `AVG`).
    pub fn has_aggregate_select(&self) -> bool {
        self.select.iter().any(|s| {
            matches!(
                s,
                SelectItem::FCount
                    | SelectItem::CountStar
                    | SelectItem::CountDistinct(_)
                    | SelectItem::Sum(_)
                    | SelectItem::Avg(_)
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::binary(
            Expr::binary(Expr::Column("a".into()), BinaryOp::Eq, Expr::Number(1.0)),
            BinaryOp::And,
            Expr::binary(
                Expr::binary(Expr::Column("b".into()), BinaryOp::Gt, Expr::Number(2.0)),
                BinaryOp::And,
                Expr::Column("c".into()),
            ),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn conjuncts_do_not_split_or() {
        let e = Expr::binary(Expr::Column("a".into()), BinaryOp::Or, Expr::Column("b".into()));
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn walk_visits_every_node() {
        let e = Expr::binary(
            Expr::FunctionCall {
                name: "redness".into(),
                args: vec![Expr::Column("content".into())],
            },
            BinaryOp::GtEq,
            Expr::Number(17.5),
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn select_helpers() {
        let q = Query {
            explain: false,
            analyze: false,
            select: vec![SelectItem::Star],
            from: FromClause::single("taipei"),
            where_clause: None,
            group_by: vec![],
            having: None,
            limit: None,
            gap: None,
            accuracy: AccuracyConstraints::default(),
            window: None,
            every: None,
        };
        assert!(q.is_select_star());
        assert!(!q.has_aggregate_select());
        let q2 = Query { select: vec![SelectItem::FCount], ..q };
        assert!(q2.has_aggregate_select());
        assert!(!q2.is_select_star());
    }

    #[test]
    fn from_clause_helpers() {
        let one = FromClause::single("taipei");
        assert_eq!(one.as_single(), Some("taipei"));
        assert!(!one.is_all());
        assert_eq!(one.names(), ["taipei".to_string()]);
        assert_eq!(one.to_string(), "taipei");

        let many = FromClause::Videos(vec!["a".into(), "b".into()]);
        assert_eq!(many.as_single(), None);
        assert_eq!(many.to_string(), "a, b");

        let all = FromClause::All;
        assert!(all.is_all());
        assert_eq!(all.as_single(), None);
        assert!(all.names().is_empty());
        assert_eq!(all.to_string(), "*");
    }

    #[test]
    fn operator_properties() {
        assert!(BinaryOp::Eq.is_comparison());
        assert!(!BinaryOp::And.is_comparison());
        assert_eq!(BinaryOp::GtEq.to_string(), ">=");
    }
}
