//! # blazeit-frameql
//!
//! FrameQL: the SQL-like declarative query language for spatiotemporal information of
//! objects in video (Section 4 of the BlazeIt paper).
//!
//! FrameQL exposes each video as a virtual relation with one row per *(object, frame)*
//! pair (Table 1): `timestamp`, `class`, `mask`, `trackid`, `content`, `features`.
//! On top of standard SQL selection / projection / aggregation it adds the paper's
//! syntactic sugar (Table 2):
//!
//! * `FCOUNT(*)` — frame-averaged count (`COUNT(*) / MAX(timestamp)` over frames);
//! * `ERROR WITHIN e [AT] CONFIDENCE c%` — absolute error tolerance for aggregates;
//! * `FPR WITHIN` / `FNR WITHIN` — allowed false positive / negative rates;
//! * `LIMIT n GAP g` — cardinality-limited (scrubbing) queries with a minimum spacing
//!   between returned frames.
//!
//! The crate is organized as lexer → parser → AST ([`ast::Query`]), plus the schema /
//! value model ([`schema`]), expression evaluation ([`expr`]), the UDF registry
//! ([`udf`]) and query classification ([`query`]) used by BlazeIt's rule-based
//! optimizer.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod query;
pub mod schema;
pub mod udf;

pub use ast::{BinaryOp, Expr, Query, SelectItem};
pub use parser::parse_query;
pub use query::{ClassRequirement, QueryClass, QueryPlanInfo};
pub use schema::{FrameQlRow, Value};
pub use udf::{builtin_udfs, Udf, UdfRegistry};

/// Errors produced while lexing, parsing or analyzing FrameQL.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameQlError {
    /// A character or token could not be lexed.
    LexError {
        /// Byte position of the offending character.
        position: usize,
        /// Description of the problem.
        message: String,
    },
    /// The token stream did not match the grammar.
    ParseError {
        /// Description of what was expected.
        message: String,
    },
    /// The query is syntactically valid but semantically unsupported or inconsistent.
    SemanticError {
        /// Description of the problem.
        message: String,
    },
    /// A referenced UDF is not registered.
    UnknownUdf(String),
    /// Evaluation error (type mismatch, missing column, ...).
    EvalError(String),
    /// A content UDF asked for the frame's pixels and the
    /// [`PixelSource`](expr::PixelSource) could not produce them.
    Pixels(blazeit_videostore::VideoError),
}

impl std::fmt::Display for FrameQlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameQlError::LexError { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            FrameQlError::ParseError { message } => write!(f, "parse error: {message}"),
            FrameQlError::SemanticError { message } => write!(f, "semantic error: {message}"),
            FrameQlError::UnknownUdf(name) => write!(f, "unknown UDF: {name}"),
            FrameQlError::EvalError(msg) => write!(f, "evaluation error: {msg}"),
            FrameQlError::Pixels(e) => write!(f, "frame content unavailable: {e}"),
        }
    }
}

impl std::error::Error for FrameQlError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, FrameQlError>;
