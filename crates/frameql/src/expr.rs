//! Evaluation of FrameQL expressions against rows and frames.
//!
//! Two evaluation contexts exist:
//!
//! * **Row-level** ([`evaluate_row`]): a `WHERE` predicate evaluated against a single
//!   object row.
//! * **Frame-level** ([`evaluate_frame_having`]): a `HAVING` predicate evaluated
//!   against all rows of one frame after `GROUP BY timestamp` — this is how scrubbing
//!   queries like `HAVING SUM(class='bus') >= 1 AND SUM(class='car') >= 5` are defined.
//!
//! Both take the frame's pixels as a [`PixelSource`], which evaluation pulls only at
//! the point a registered content UDF (`redness`, `classify`, ...) is actually
//! invoked. Mask accessors and `area(mask)` never pull, and `AND`/`OR` short-circuit,
//! so `class = 'bus' AND redness(content) >= 17.5` asks for pixels only on a bus row —
//! the caller decides what a pull costs (nothing for a decoded [`Frame`], a render for
//! a lazy source) and pays it only when something reads the frame.

use crate::ast::{BinaryOp, Expr};
use crate::schema::{FrameQlRow, Value};
use crate::udf::UdfRegistry;
use crate::{FrameQlError, Result};
use blazeit_videostore::Frame;

/// Mask-accessor helpers available in expressions without registration:
/// `xmin(mask)`, `xmax(mask)`, `ymin(mask)`, `ymax(mask)`, `width(mask)`, `height(mask)`.
pub const MASK_ACCESSORS: [&str; 6] = ["xmin", "xmax", "ymin", "ymax", "width", "height"];

fn mask_accessor(name: &str, row: &FrameQlRow) -> Option<Value> {
    let m = &row.mask;
    let v = match name {
        "xmin" => m.xmin,
        "xmax" => m.xmax,
        "ymin" => m.ymin,
        "ymax" => m.ymax,
        "width" => m.width(),
        "height" => m.height(),
        _ => return None,
    };
    Some(Value::Number(f64::from(v)))
}

/// Where evaluation gets a frame's pixels from, if and when a content UDF reads them.
pub trait PixelSource {
    /// The frame's pixels. Called once per content-UDF invocation and never
    /// otherwise; an error is returned from the evaluation unchanged.
    fn pixels(&self) -> Result<&Frame>;
}

/// An already-decoded frame is its own source.
impl PixelSource for Frame {
    fn pixels(&self) -> Result<&Frame> {
        Ok(self)
    }
}

/// Evaluates an expression against one row, pulling `pixels` only when a registered
/// content UDF is invoked.
pub fn evaluate_row(
    expr: &Expr,
    row: &FrameQlRow,
    pixels: &dyn PixelSource,
    udfs: &UdfRegistry,
) -> Result<Value> {
    match expr {
        Expr::Number(n) => Ok(Value::Number(*n)),
        Expr::StringLit(s) => Ok(Value::Str(s.clone())),
        Expr::Star => Ok(Value::Number(1.0)),
        Expr::Column(name) => row
            .column(name)
            .ok_or_else(|| FrameQlError::EvalError(format!("unknown column '{name}'"))),
        Expr::FunctionCall { name, args } => {
            if MASK_ACCESSORS.contains(&name.as_str()) {
                return mask_accessor(name, row)
                    .ok_or_else(|| FrameQlError::EvalError(format!("bad mask accessor {name}")));
            }
            // `area(mask)` depends only on the mask, so it never needs frame pixels.
            if name == "area" && args.len() == 1 {
                return Ok(Value::Number(f64::from(row.mask.area())));
            }
            if udfs.contains(name) {
                return udfs.call(name, pixels.pixels()?, &row.mask);
            }
            // `area` is registered as a UDF, but be tolerant if a caller supplies a
            // registry without the builtins.
            if name == "area" && args.len() == 1 {
                return Ok(Value::Number(f64::from(row.mask.area())));
            }
            Err(FrameQlError::UnknownUdf(name.clone()))
        }
        Expr::Binary { left, op, right } => {
            let l = evaluate_row(left, row, pixels, udfs)?;
            if matches!(op, BinaryOp::And) {
                if !l.truthy() {
                    return Ok(Value::Bool(false));
                }
                let r = evaluate_row(right, row, pixels, udfs)?;
                return Ok(Value::Bool(r.truthy()));
            }
            if matches!(op, BinaryOp::Or) {
                if l.truthy() {
                    return Ok(Value::Bool(true));
                }
                let r = evaluate_row(right, row, pixels, udfs)?;
                return Ok(Value::Bool(r.truthy()));
            }
            let r = evaluate_row(right, row, pixels, udfs)?;
            compare(&l, *op, &r)
        }
    }
}

/// Evaluates a `HAVING` expression against all rows of one frame
/// (`GROUP BY timestamp` semantics); `pixels` is pulled as in [`evaluate_row`].
pub fn evaluate_frame_having(
    expr: &Expr,
    rows: &[FrameQlRow],
    pixels: &dyn PixelSource,
    udfs: &UdfRegistry,
) -> Result<Value> {
    match expr {
        Expr::Number(n) => Ok(Value::Number(*n)),
        Expr::StringLit(s) => Ok(Value::Str(s.clone())),
        Expr::FunctionCall { name, args } => match name.as_str() {
            "sum" => {
                let arg = args
                    .first()
                    .ok_or_else(|| FrameQlError::EvalError("SUM requires an argument".into()))?;
                let mut total = 0.0;
                for row in rows {
                    let v = evaluate_row(arg, row, pixels, udfs)?;
                    total += v.as_number().unwrap_or(if v.truthy() { 1.0 } else { 0.0 });
                }
                Ok(Value::Number(total))
            }
            "count" => Ok(Value::Number(rows.len() as f64)),
            "avg" => {
                let arg = args
                    .first()
                    .ok_or_else(|| FrameQlError::EvalError("AVG requires an argument".into()))?;
                if rows.is_empty() {
                    return Ok(Value::Number(0.0));
                }
                let mut total = 0.0;
                for row in rows {
                    let v = evaluate_row(arg, row, pixels, udfs)?;
                    total += v.as_number().unwrap_or(if v.truthy() { 1.0 } else { 0.0 });
                }
                Ok(Value::Number(total / rows.len() as f64))
            }
            _ => Err(FrameQlError::EvalError(format!(
                "function '{name}' is not an aggregate usable in HAVING"
            ))),
        },
        Expr::Binary { left, op, right } => {
            let l = evaluate_frame_having(left, rows, pixels, udfs)?;
            match op {
                BinaryOp::And => {
                    if !l.truthy() {
                        return Ok(Value::Bool(false));
                    }
                    let r = evaluate_frame_having(right, rows, pixels, udfs)?;
                    Ok(Value::Bool(r.truthy()))
                }
                BinaryOp::Or => {
                    if l.truthy() {
                        return Ok(Value::Bool(true));
                    }
                    let r = evaluate_frame_having(right, rows, pixels, udfs)?;
                    Ok(Value::Bool(r.truthy()))
                }
                _ => {
                    let r = evaluate_frame_having(right, rows, pixels, udfs)?;
                    compare(&l, *op, &r)
                }
            }
        }
        Expr::Column(name) => Err(FrameQlError::EvalError(format!(
            "bare column '{name}' is not valid in a frame-level HAVING"
        ))),
        Expr::Star => Ok(Value::Number(rows.len() as f64)),
    }
}

fn compare(left: &Value, op: BinaryOp, right: &Value) -> Result<Value> {
    // Numeric comparison when both sides are numeric (or boolean).
    if let (Some(l), Some(r)) = (left.as_number(), right.as_number()) {
        let result = match op {
            BinaryOp::Eq => (l - r).abs() < f64::EPSILON,
            BinaryOp::NotEq => (l - r).abs() >= f64::EPSILON,
            BinaryOp::Lt => l < r,
            BinaryOp::LtEq => l <= r,
            BinaryOp::Gt => l > r,
            BinaryOp::GtEq => l >= r,
            BinaryOp::And | BinaryOp::Or => {
                return Err(FrameQlError::EvalError(
                    "logical operator reached value comparison (the caller short-circuits \
                     AND/OR before comparing)"
                        .into(),
                ))
            }
        };
        return Ok(Value::Bool(result));
    }
    // String comparison.
    if let (Value::Str(l), Value::Str(r)) = (left, right) {
        let result = match op {
            BinaryOp::Eq => l.eq_ignore_ascii_case(r),
            BinaryOp::NotEq => !l.eq_ignore_ascii_case(r),
            BinaryOp::Lt => l < r,
            BinaryOp::LtEq => l <= r,
            BinaryOp::Gt => l > r,
            BinaryOp::GtEq => l >= r,
            BinaryOp::And | BinaryOp::Or => {
                return Err(FrameQlError::EvalError(
                    "logical operator reached value comparison (the caller short-circuits \
                     AND/OR before comparing)"
                        .into(),
                ))
            }
        };
        return Ok(Value::Bool(result));
    }
    // NULL comparisons are false (SQL-ish).
    if matches!(left, Value::Null) || matches!(right, Value::Null) {
        return Ok(Value::Bool(false));
    }
    Err(FrameQlError::EvalError(format!("cannot compare {left:?} {op} {right:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::udf::builtin_udfs;
    use blazeit_videostore::object::Color;
    use blazeit_videostore::{BoundingBox, ObjectClass, VideoError};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn row(class: ObjectClass, x: f32) -> FrameQlRow {
        FrameQlRow {
            timestamp: 3.0,
            frame: 90,
            class,
            mask: BoundingBox::new(x, 100.0, x + 400.0, 400.0),
            trackid: 1,
            confidence: 0.9,
            features: vec![],
        }
    }

    fn red_frame() -> Frame {
        Frame::filled(90, 3.0, (1280.0, 720.0), (96, 54), Color::RED)
    }

    fn where_of(sql: &str) -> Expr {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    /// Serves a frame and counts how often it was asked for it.
    struct CountingSource {
        frame: Frame,
        pulls: Cell<usize>,
    }

    impl PixelSource for CountingSource {
        fn pixels(&self) -> Result<&Frame> {
            self.pulls.set(self.pulls.get() + 1);
            Ok(&self.frame)
        }
    }

    /// A source whose render fails with a typed error.
    struct FailingSource;

    fn render_failure() -> FrameQlError {
        FrameQlError::Pixels(VideoError::FrameOutOfRange { requested: 90, len: 0 })
    }

    impl PixelSource for FailingSource {
        fn pixels(&self) -> Result<&Frame> {
            Err(render_failure())
        }
    }

    /// A source nothing may pull: what every mask-only evaluation below runs with.
    struct ForbiddenSource;

    impl PixelSource for ForbiddenSource {
        fn pixels(&self) -> Result<&Frame> {
            panic!("a mask-only predicate pulled the frame's pixels")
        }
    }

    #[test]
    fn class_equality_predicate() {
        let udfs = builtin_udfs();
        let e = where_of("SELECT * FROM v WHERE class = 'bus'");
        let bus = row(ObjectClass::Bus, 100.0);
        let car = row(ObjectClass::Car, 100.0);
        assert_eq!(evaluate_row(&e, &bus, &ForbiddenSource, &udfs).unwrap(), Value::Bool(true));
        assert_eq!(evaluate_row(&e, &car, &ForbiddenSource, &udfs).unwrap(), Value::Bool(false));
    }

    #[test]
    fn udf_predicate_with_content() {
        let udfs = builtin_udfs();
        let e = where_of("SELECT * FROM v WHERE redness(content) >= 17.5");
        let r = row(ObjectClass::Bus, 100.0);
        let frame = red_frame();
        assert_eq!(evaluate_row(&e, &r, &frame, &udfs).unwrap(), Value::Bool(true));
        // A source that cannot produce the frame fails the evaluation with its error.
        assert_eq!(evaluate_row(&e, &r, &FailingSource, &udfs), Err(render_failure()));
    }

    #[test]
    fn area_and_mask_accessors() {
        let udfs = builtin_udfs();
        let e = where_of("SELECT * FROM v WHERE area(mask) > 100000");
        let r = row(ObjectClass::Bus, 100.0); // 400 x 300 = 120,000 px
        assert_eq!(evaluate_row(&e, &r, &ForbiddenSource, &udfs).unwrap(), Value::Bool(true));
        let e2 = where_of("SELECT * FROM v WHERE xmax(mask) < 720");
        assert_eq!(evaluate_row(&e2, &r, &ForbiddenSource, &udfs).unwrap(), Value::Bool(true));
        let far = row(ObjectClass::Bus, 900.0);
        assert_eq!(evaluate_row(&e2, &far, &ForbiddenSource, &udfs).unwrap(), Value::Bool(false));
    }

    #[test]
    fn and_or_short_circuit() {
        let udfs = builtin_udfs();
        // The right-hand UDF would pull the frame, but the left side decides.
        let e = where_of("SELECT * FROM v WHERE class = 'car' AND redness(content) > 10");
        let bus = row(ObjectClass::Bus, 0.0);
        assert_eq!(evaluate_row(&e, &bus, &ForbiddenSource, &udfs).unwrap(), Value::Bool(false));
        let e_or = where_of("SELECT * FROM v WHERE class = 'bus' OR redness(content) > 10");
        assert_eq!(evaluate_row(&e_or, &bus, &ForbiddenSource, &udfs).unwrap(), Value::Bool(true));
    }

    // ---- the pull contract, over generated predicates ---------------------------

    /// The builtin registry with every content-reading UDF wrapped to count its
    /// invocations.
    fn counted_udfs() -> (UdfRegistry, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut udfs = builtin_udfs();
        for name in ["redness", "luminance", "classify"] {
            let udf = udfs.get(name).unwrap().clone();
            let calls = Arc::clone(&calls);
            udfs.register(name, udf.frame_liftable, move |frame, mask| {
                calls.fetch_add(1, Ordering::Relaxed);
                (udf.func)(frame, mask)
            });
        }
        (udfs, calls)
    }

    /// Decodes a predicate from a tape of random draws: comparisons over the class
    /// column, mask accessors, `area(mask)` and — when `content` — content UDFs on
    /// either side of the operator, combined by `AND`/`OR` up to `depth` levels.
    fn predicate(tape: &mut impl Iterator<Item = u32>, depth: u32, content: bool) -> Expr {
        let mut draw = || tape.next().unwrap_or(0);
        if depth > 0 && draw() % 3 != 0 {
            let op = if draw() % 2 == 0 { BinaryOp::And } else { BinaryOp::Or };
            let left = predicate(tape, depth - 1, content);
            return Expr::binary(left, op, predicate(tape, depth - 1, content));
        }
        let call = |name: &str, arg: &str| Expr::FunctionCall {
            name: name.to_string(),
            args: vec![Expr::Column(arg.to_string())],
        };
        let threshold = Expr::Number(f64::from(draw() % 200));
        match draw() % if content { 9 } else { 5 } {
            0 => Expr::binary(
                Expr::Column("class".into()),
                BinaryOp::Eq,
                Expr::StringLit("bus".into()),
            ),
            1 => Expr::binary(
                Expr::Column("class".into()),
                BinaryOp::Eq,
                Expr::StringLit("car".into()),
            ),
            2 => Expr::binary(call("area", "mask"), BinaryOp::Gt, Expr::Number(100_000.0)),
            3 => Expr::binary(call("xmax", "mask"), BinaryOp::Lt, Expr::Number(720.0)),
            4 => Expr::binary(call("width", "mask"), BinaryOp::GtEq, threshold),
            5 => Expr::binary(call("redness", "content"), BinaryOp::GtEq, threshold),
            6 => Expr::binary(threshold, BinaryOp::LtEq, call("redness", "content")),
            7 => Expr::binary(call("luminance", "content"), BinaryOp::Gt, threshold),
            _ => Expr::binary(
                call("classify", "content"),
                BinaryOp::Eq,
                Expr::StringLit("sedan".into()),
            ),
        }
    }

    proptest! {
        /// The source is pulled exactly once per content-UDF invocation — so it is
        /// pulled iff evaluation reaches one — and a source that fails turns exactly
        /// those evaluations into its own typed error, the others into the same value.
        #[test]
        fn pixels_are_pulled_exactly_when_a_content_udf_runs(
            tape in prop::collection::vec(0u32..1000, 64),
        ) {
            let e = predicate(&mut tape.into_iter(), 3, true);
            let (udfs, calls) = counted_udfs();
            let rows = [row(ObjectClass::Bus, 100.0), row(ObjectClass::Car, 900.0)];
            let source = CountingSource { frame: red_frame(), pulls: Cell::new(0) };
            for r in &rows {
                let before = (source.pulls.get(), calls.load(Ordering::Relaxed));
                let value = evaluate_row(&e, r, &source, &udfs).unwrap();
                let pulled = source.pulls.get() - before.0;
                prop_assert_eq!(pulled, calls.load(Ordering::Relaxed) - before.1, "{:?}", e);
                match evaluate_row(&e, r, &FailingSource, &udfs) {
                    Ok(same) => prop_assert!(pulled == 0 && same == value, "{:?}", e),
                    Err(err) => prop_assert!(pulled > 0 && err == render_failure(), "{:?}", e),
                }
            }

            // The frame-level evaluator forwards the same source to every row.
            let having = Expr::binary(
                Expr::FunctionCall { name: "sum".into(), args: vec![e.clone()] },
                BinaryOp::GtEq,
                Expr::Number(1.0),
            );
            let before = (source.pulls.get(), calls.load(Ordering::Relaxed));
            evaluate_frame_having(&having, &rows, &source, &udfs).unwrap();
            prop_assert_eq!(
                source.pulls.get() - before.0,
                calls.load(Ordering::Relaxed) - before.1,
                "{:?}",
                having
            );
        }

        /// Class, mask-accessor and `area(mask)` predicates never ask for pixels.
        #[test]
        fn mask_only_predicates_never_pull(tape in prop::collection::vec(0u32..1000, 64)) {
            let e = predicate(&mut tape.into_iter(), 3, false);
            let udfs = builtin_udfs();
            for r in [row(ObjectClass::Bus, 100.0), row(ObjectClass::Car, 900.0)] {
                let value = evaluate_row(&e, &r, &ForbiddenSource, &udfs).unwrap();
                prop_assert_eq!(value, evaluate_row(&e, &r, &red_frame(), &udfs).unwrap());
            }
        }
    }

    #[test]
    fn unknown_column_and_udf_errors() {
        let udfs = builtin_udfs();
        let e = where_of("SELECT * FROM v WHERE speed > 10");
        assert!(evaluate_row(&e, &row(ObjectClass::Car, 0.0), &ForbiddenSource, &udfs).is_err());
        let e2 = where_of("SELECT * FROM v WHERE sharpness(content) > 10");
        assert!(matches!(
            evaluate_row(&e2, &row(ObjectClass::Car, 0.0), &red_frame(), &udfs),
            Err(FrameQlError::UnknownUdf(_))
        ));
    }

    #[test]
    fn having_sum_of_class_predicates() {
        let udfs = builtin_udfs();
        let having = parse_query(
            "SELECT timestamp FROM v GROUP BY timestamp \
             HAVING SUM(class='bus')>=1 AND SUM(class='car')>=2 LIMIT 1",
        )
        .unwrap()
        .having
        .unwrap();
        let rows_match = vec![
            row(ObjectClass::Bus, 0.0),
            row(ObjectClass::Car, 300.0),
            row(ObjectClass::Car, 600.0),
        ];
        let rows_no_match = vec![row(ObjectClass::Car, 0.0), row(ObjectClass::Car, 300.0)];
        assert_eq!(
            evaluate_frame_having(&having, &rows_match, &ForbiddenSource, &udfs).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            evaluate_frame_having(&having, &rows_no_match, &ForbiddenSource, &udfs).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            evaluate_frame_having(&having, &[], &ForbiddenSource, &udfs).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn having_count_star() {
        let udfs = builtin_udfs();
        let having = parse_query("SELECT * FROM v GROUP BY trackid HAVING COUNT(*) > 2")
            .unwrap()
            .having
            .unwrap();
        let rows3 = vec![
            row(ObjectClass::Bus, 0.0),
            row(ObjectClass::Bus, 1.0),
            row(ObjectClass::Bus, 2.0),
        ];
        assert_eq!(
            evaluate_frame_having(&having, &rows3, &ForbiddenSource, &udfs).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            evaluate_frame_having(&having, &rows3[..2], &ForbiddenSource, &udfs).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn string_comparison_is_case_insensitive() {
        assert_eq!(
            compare(&Value::Str("Car".into()), BinaryOp::Eq, &Value::Str("car".into())).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            compare(&Value::Str("bus".into()), BinaryOp::NotEq, &Value::Str("car".into())).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn null_comparisons_are_false() {
        assert_eq!(
            compare(&Value::Null, BinaryOp::Eq, &Value::Number(1.0)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn incompatible_comparison_is_error() {
        assert!(compare(&Value::Str("car".into()), BinaryOp::Lt, &Value::Number(1.0)).is_err());
    }
}
