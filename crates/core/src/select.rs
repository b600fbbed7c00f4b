//! Content-based selection queries (Section 8 of the paper).
//!
//! Selection queries need the actual masks / content of every matching object, so the
//! detector must run on every *relevant* frame — the optimization is to discard
//! irrelevant frames (or shrink them) before detection. BlazeIt infers four classes of
//! filters from the query and the labeled set:
//!
//! * **Temporal filter** — `GROUP BY trackid HAVING COUNT(*) > K` means objects must be
//!   visible for more than `K` frames, so sampling every `(K-1)/2` frames cannot miss
//!   them.
//! * **Spatial filter** — explicit mask constraints (`xmax(mask) < 720`) or, absent
//!   those, the region the target class actually occupies in the labeled data; the
//!   detector then runs on a smaller, squarer crop, which is cheaper.
//! * **Content filter** — frame-liftable UDF predicates (`redness(content) >= 17.5`)
//!   are turned into frame-level thresholds calibrated on the held-out day with no
//!   false negatives.
//! * **Label filter** — a specialized binary-presence NN for the target class,
//!   thresholded on the held-out day with no false negatives (NoScope-style).
//!
//! Filters are applied cheapest-first; only frames surviving every filter reach the
//! object detector. Because every returned row is detector-verified, the plan can only
//! introduce false negatives, whose rate the experiments measure against the naive scan.
//!
//! **Cost model vs host work.** Simulated `Decode` is charged where a real system would
//! decode a frame — once per frame the content filter scans, once per frame handed to
//! the detector — whether or not anything on the host looks at the pixels. Host
//! rendering ([`Video::frame`]) is demand-driven and is never what a charge is
//! conditioned on: the content-filter scan and its held-out calibration render because
//! their UDFs read every frame, and row evaluation renders a detected frame only when
//! its predicate reaches a content UDF (the `PixelSource` contract of
//! [`blazeit_frameql::expr`]). A render implies a `Decode` charge; a `Decode` charge
//! does not imply a render. Every render goes through `render_full_frame` and is
//! counted (`frames_rendered` on the `calibrate filters` / `filter-detect` spans),
//! and `blazeit-lint`'s `clock-accounting` check pins the call sites.
//!
//! The scan's per-stage frame counts — the factor analysis of Figure 11 —
//! are counters on the `filter-detect` span too: `frames_considered` after temporal
//! subsampling, `frames_after_content`, `frames_after_label` (the frames detected).

use crate::context::VideoContext;
use crate::obs;
use crate::plan::VideoPlan;
use crate::relation::RelationBuilder;
use crate::result::QueryOutput;
use crate::{BlazeItError, Result};
use blazeit_detect::clock::CostCategory;
use blazeit_frameql::ast::BinaryOp;
use blazeit_frameql::expr::{evaluate_row, PixelSource};
use blazeit_frameql::query::{ContentPredicate, MaskAccessor, QueryPlanInfo};
use blazeit_frameql::{FrameQlError, FrameQlRow, Query};
use blazeit_nn::ScoreMatrix;
use blazeit_videostore::{BoundingBox, Frame, FrameIndex, ObjectClass, Video, VideoError};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Which filter classes the plan is allowed to use (all enabled by default; the factor
/// analysis / lesion study of Figure 11 toggles them individually).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionOptions {
    /// Enable the label-based (specialized NN) filter.
    pub use_label_filter: bool,
    /// Enable frame-level content filters lifted from UDF predicates.
    pub use_content_filter: bool,
    /// Enable temporal subsampling derived from track-duration constraints.
    pub use_temporal_filter: bool,
    /// Enable spatial cropping.
    pub use_spatial_filter: bool,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        SelectionOptions::all()
    }
}

impl SelectionOptions {
    /// Every inferred filter enabled: the full BlazeIt selection plan (what the
    /// planner puts in a fresh [`VideoPlan`]).
    pub fn all() -> SelectionOptions {
        SelectionOptions {
            use_label_filter: true,
            use_content_filter: true,
            use_temporal_filter: true,
            use_spatial_filter: true,
        }
    }

    /// No filters at all: the naive plan expressed through the same executor.
    pub fn none() -> SelectionOptions {
        SelectionOptions {
            use_label_filter: false,
            use_content_filter: false,
            use_temporal_filter: false,
            use_spatial_filter: false,
        }
    }
}

/// A calibrated frame-level content filter.
struct ContentFilter {
    /// UDF name.
    udf: String,
    /// The frame-level threshold below which frames are discarded.
    frame_threshold: f64,
}

/// The label filter: the unseen video's batched score index, the head to read,
/// and the no-false-negative presence threshold.
type LabelFilter = (Arc<ScoreMatrix>, usize, f64);

/// The resolved filter plan for one selection query.
struct FilterPlan {
    /// The video the scan covers: with a label filter, the one its score index
    /// covers (a stream may have grown since).
    video: Arc<Video>,
    /// Frame-scan stride (1 = every frame).
    stride: u64,
    /// Detection region of interest, if any.
    region: Option<BoundingBox>,
    /// Calibrated frame-level content filters.
    content_filters: Vec<ContentFilter>,
    /// Label filter. Scoring happened when the index was built (cached on the
    /// context), so applying the filter during the scan is a lookup, not an
    /// inference.
    label_filter: Option<LabelFilter>,
    /// Minimum number of *scanned* frames a track must appear in (derived from the
    /// track-duration constraint and the stride).
    min_track_appearances: u64,
}

/// Renders one full frame on the host and counts it in `rendered`.
///
/// The only caller of [`Video::frame`] in production (`blazeit-lint` enforces it), and
/// itself callable only where `CostCategory::Decode` is charged for the same frame.
fn render_full_frame(
    video: &Video,
    frame: FrameIndex,
    rendered: &Cell<u64>,
) -> std::result::Result<Frame, VideoError> {
    rendered.set(rendered.get() + 1);
    video.frame(frame)
}

/// The pixels of one frame the scan handed to the detector: the content filter's
/// buffer when it decoded the frame, otherwise rendered on the first pull — at most
/// once, and only if row evaluation reaches a content UDF. `Decode` for the frame is
/// charged by the scan either way.
struct DetectedFramePixels<'a> {
    video: &'a Video,
    frame: FrameIndex,
    decoded: OnceCell<Frame>,
    rendered: &'a Cell<u64>,
}

impl PixelSource for DetectedFramePixels<'_> {
    fn pixels(&self) -> blazeit_frameql::Result<&Frame> {
        if let Some(pixels) = self.decoded.get() {
            return Ok(pixels);
        }
        let pixels = render_full_frame(self.video, self.frame, self.rendered)
            .map_err(FrameQlError::Pixels)?;
        Ok(self.decoded.get_or_init(|| pixels))
    }
}

/// Maps returned rows to *ground-truth* track ids by matching each row's mask against
/// the scene's objects in that frame (highest IoU wins, minimum 0.3).
///
/// Tracker-assigned `trackid`s are only unique within one scan, so comparing result
/// sets across plans (e.g. measuring BlazeIt's false-negative rate against the naive
/// plan, Figure 10) must go through the ground truth instead.
pub fn ground_truth_tracks(ctx: &VideoContext, rows: &[FrameQlRow]) -> Vec<u64> {
    let mut ids: Vec<u64> = rows
        .iter()
        .filter_map(|row| {
            ctx.video()
                .scene()
                .visible_at(row.frame)
                .iter()
                .map(|gt| (gt.track_id, gt.bbox.iou(&row.mask)))
                .filter(|&(_, iou)| iou >= 0.3)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(id, _)| id)
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Executes a selection (or exhaustive) query against one video, with the filter
/// options and label-filter heads resolved into (or overridden on) its sub-plan.
pub fn execute(
    ctx: &VideoContext,
    query: &Query,
    info: &QueryPlanInfo,
    plan: &VideoPlan,
) -> Result<QueryOutput> {
    let filters = {
        let _calibrate = obs::span("calibrate filters");
        resolve_filters(ctx, info, &plan.selection, &plan.heads)?
    };
    let (rows, detection_calls) = run_selection(ctx, query, info, &filters)?;
    Ok(QueryOutput::Rows { rows, detection_calls })
}

/// Resolves the filter plan; `label_heads` are the heads the label filter trains
/// (none: no label filter).
fn resolve_filters(
    ctx: &VideoContext,
    info: &QueryPlanInfo,
    options: &SelectionOptions,
    label_heads: &[(ObjectClass, usize)],
) -> Result<FilterPlan> {
    // --- Temporal filter ------------------------------------------------------------
    let stride = if options.use_temporal_filter {
        match info.min_track_frames {
            Some(k) if k >= 3 => ((k - 1) / 2).max(1),
            _ => 1,
        }
    } else {
        1
    };
    let min_track_appearances = match info.min_track_frames {
        Some(k) if k > 0 => (k / stride).max(1),
        _ => 1,
    };

    // --- Spatial filter ---------------------------------------------------------------
    let region = if options.use_spatial_filter { spatial_region(ctx, info) } else { None };

    // --- Content filters ---------------------------------------------------------------
    let content_filters =
        if options.use_content_filter { calibrate_content_filters(ctx, info)? } else { Vec::new() };

    // --- Label filter ------------------------------------------------------------------
    let label_filter = if options.use_label_filter {
        calibrate_label_filter(ctx, info, label_heads)?
    } else {
        None
    };
    let (video, label_filter) = match label_filter {
        Some((video, filter)) => (video, Some(filter)),
        None => (ctx.video(), None),
    };

    Ok(FilterPlan { video, stride, region, content_filters, label_filter, min_track_appearances })
}

/// Derives the detection region of interest.
///
/// Explicit mask constraints in the query win; otherwise the region is inferred from
/// where the target class appears in the labeled training data (with 5% padding). The
/// region is only used when it is meaningfully smaller than the full frame.
fn spatial_region(ctx: &VideoContext, info: &QueryPlanInfo) -> Option<BoundingBox> {
    let (width, height) = ctx.video().resolution();
    if !info.spatial_constraints.is_empty() {
        let mut xmin = 0.0f32;
        let mut ymin = 0.0f32;
        let mut xmax = width;
        let mut ymax = height;
        for c in &info.spatial_constraints {
            let v = c.value as f32;
            match (c.accessor, c.op) {
                (MaskAccessor::Xmax, BinaryOp::Lt | BinaryOp::LtEq) => xmax = xmax.min(v),
                (MaskAccessor::Xmin, BinaryOp::Gt | BinaryOp::GtEq) => xmin = xmin.max(v),
                (MaskAccessor::Ymax, BinaryOp::Lt | BinaryOp::LtEq) => ymax = ymax.min(v),
                (MaskAccessor::Ymin, BinaryOp::Gt | BinaryOp::GtEq) => ymin = ymin.max(v),
                _ => {}
            }
        }
        let region = BoundingBox::new(xmin, ymin, xmax, ymax);
        if !region.is_empty() {
            return Some(region);
        }
        return None;
    }

    // Infer from the labeled data: the union of the target class's boxes, padded.
    let class = info.single_class()?;
    let train = ctx.labeled().train();
    let mut xmin = f32::INFINITY;
    let mut ymin = f32::INFINITY;
    let mut xmax = f32::NEG_INFINITY;
    let mut ymax = f32::NEG_INFINITY;
    let mut seen = false;
    for detections in &train.detections {
        for d in detections {
            if d.class != class {
                continue;
            }
            seen = true;
            xmin = xmin.min(d.bbox.xmin);
            ymin = ymin.min(d.bbox.ymin);
            xmax = xmax.max(d.bbox.xmax);
            ymax = ymax.max(d.bbox.ymax);
        }
    }
    if !seen {
        return None;
    }
    let pad_x = 0.05 * width;
    let pad_y = 0.05 * height;
    let region = BoundingBox::new(xmin - pad_x, ymin - pad_y, xmax + pad_x, ymax + pad_y)
        .clamp_to(width, height);
    if region.area() < 0.85 * width * height {
        Some(region)
    } else {
        None
    }
}

/// Calibrates frame-level thresholds for liftable content predicates on the held-out
/// day, with no false negatives on that day (Section 8.1).
fn calibrate_content_filters(
    ctx: &VideoContext,
    info: &QueryPlanInfo,
) -> Result<Vec<ContentFilter>> {
    let liftable: Vec<&ContentPredicate> = info
        .content_predicates
        .iter()
        .filter(|p| p.frame_liftable && matches!(p.op, BinaryOp::Gt | BinaryOp::GtEq))
        .collect();
    if liftable.is_empty() {
        return Ok(Vec::new());
    }

    let heldout = ctx.labeled().heldout();
    let heldout_video = ctx.labeled().heldout_video();
    let (width, height) = heldout_video.resolution();
    let full = BoundingBox::new(0.0, 0.0, width, height);
    let target_class = info.single_class();
    let mut filters = Vec::new();
    let rendered = Cell::new(0u64);

    for predicate in liftable {
        let mut qualifying_frame_values: Vec<f64> = Vec::new();
        let mut all_values: Vec<f64> = Vec::new();
        for (idx, &frame) in heldout.frames.iter().enumerate() {
            let pixels = render_full_frame(heldout_video, frame, &rendered)?;
            ctx.clock().charge(CostCategory::Decode, ctx.config().cost.decode_cost());
            ctx.clock().charge(CostCategory::Filter, ctx.config().cost.filter_cost());
            let frame_value =
                ctx.udfs().call(&predicate.udf, &pixels, &full)?.as_number().ok_or_else(|| {
                    BlazeItError::Unsupported(format!(
                        "UDF '{}' does not return a continuous value",
                        predicate.udf
                    ))
                })?;
            all_values.push(frame_value);

            // Does this held-out frame contain a qualifying object (right class, and
            // the object-level predicate holds on its mask)?
            #[expect(
                clippy::indexing_slicing,
                reason = "idx enumerates heldout.detections, so it is in range for that same vec"
            )]
            let qualifies = heldout.detections[idx].iter().any(|d| {
                if let Some(class) = target_class {
                    if d.class != class {
                        return false;
                    }
                }
                let object_value = ctx
                    .udfs()
                    .call(&predicate.udf, &pixels, &d.bbox)
                    .ok()
                    .and_then(|v| v.as_number())
                    .unwrap_or(f64::NEG_INFINITY);
                match predicate.op {
                    BinaryOp::Gt => object_value > predicate.threshold,
                    _ => object_value >= predicate.threshold,
                }
            });
            if qualifies {
                qualifying_frame_values.push(frame_value);
            }
        }

        if qualifying_frame_values.is_empty() {
            // Nothing qualifies on the held-out day: a frame-level filter cannot be
            // calibrated safely, so skip it (the paper's "learn which filters can be
            // used effectively").
            continue;
        }
        let min_positive = qualifying_frame_values.iter().cloned().fold(f64::INFINITY, f64::min);
        let spread = {
            let max_all = all_values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min_all = all_values.iter().cloned().fold(f64::INFINITY, f64::min);
            (max_all - min_all).max(1e-9)
        };
        filters.push(ContentFilter {
            udf: predicate.udf.clone(),
            frame_threshold: min_positive - 0.05 * spread,
        });
    }
    obs::count(obs::COUNTER_FRAMES_RENDERED, rendered.get());
    Ok(filters)
}

/// Trains the label-based (binary presence) filter's network over `heads` (the
/// plan's; none means the planner found too little labeled data) and returns the
/// unseen video with its score index, plus the target class's head and calibrated
/// threshold.
///
/// The threshold comes from the context's held-out calibration and the scores from
/// its score-index cache, so repeated selection queries over the same class neither
/// retrain, rescore nor recalibrate anything.
fn calibrate_label_filter(
    ctx: &VideoContext,
    info: &QueryPlanInfo,
    heads: &[(ObjectClass, usize)],
) -> Result<Option<(Arc<Video>, LabelFilter)>> {
    let Some(class) = info.single_class() else { return Ok(None) };
    if heads.is_empty() {
        return Ok(None);
    }
    let nn = ctx.specialized_for(heads)?;
    let threshold = ctx.heldout_calibration(&nn)?.head(class)?.presence_threshold;
    let head = nn
        .head_index(class)
        .ok_or_else(|| BlazeItError::Internal(format!("no head for class {class}")))?;
    let (video, scores) = ctx.indexed_video(&nn)?;
    Ok(Some((video, (scores, head, threshold))))
}

/// How many filter-surviving frames the selection scan hands to
/// [`SimulatedDetector::detect_batch_in_region`](blazeit_detect::SimulatedDetector::detect_batch_in_region)
/// at a time (the same pipelined prefetch idea as the scrub verification loop).
const DETECT_PREFETCH: usize = 16;

/// Runs the selection scan with a resolved filter plan.
///
/// Detection runs through a pipelined prefetch window: the cheap filters
/// (content, label) are evaluated frame by frame exactly as before — they decide
/// for free which frames reach the detector and can short-circuit per frame —
/// and the surviving frames are detected in batches of `DETECT_PREFETCH`
/// through one region-aware `detect_batch` call each. Filter outcomes never
/// depend on detection outcomes, so the returned rows, every per-stage count,
/// and every charged cost total are identical to the frame-by-frame loop; only
/// the per-call bookkeeping is amortized. Entity resolution (the tracker) still
/// sees frames strictly in scan order.
///
/// Pixels are rendered on demand (see the module docs): the scan charges `Decode`
/// for every detected frame as the eager loop did, but renders one only when its
/// row evaluation pulls its `DetectedFramePixels` source.
fn run_selection(
    ctx: &VideoContext,
    query: &Query,
    info: &QueryPlanInfo,
    plan: &FilterPlan,
) -> Result<(Vec<FrameQlRow>, u64)> {
    let _select = obs::span("filter-detect");
    let video = &*plan.video;
    let (width, height) = video.resolution();
    let full = BoundingBox::new(0.0, 0.0, width, height);
    let mut builder = RelationBuilder::new(ctx.detector(), ctx.config().tracker_iou, plan.stride);
    // The label filter's rows, walked in step with the scan: one per scanned frame.
    let mut label_rows = plan.label_filter.as_ref().map(|(scores, _, _)| {
        scores.rows(0..scores.num_frames()).step_by(plan.stride.max(1) as usize)
    });

    let mut rows: Vec<FrameQlRow> = Vec::new();
    let mut track_appearances: HashMap<u64, u64> = HashMap::new();
    let mut detection_calls = 0u64;
    let mut frames_considered = 0u64;
    let mut frames_after_content = 0u64;
    let mut frames_after_label = 0u64;
    let rendered = Cell::new(0u64);

    // Frames that passed every filter and await batched detection, each carrying
    // the content filter's decoded buffer (already charged) when there is one,
    // so row evaluation reuses it exactly as the serial loop did.
    let mut window: Vec<DetectedFramePixels<'_>> = Vec::with_capacity(DETECT_PREFETCH);

    let flush = |window: &mut Vec<DetectedFramePixels<'_>>,
                 builder: &mut RelationBuilder<'_>,
                 rows: &mut Vec<FrameQlRow>,
                 track_appearances: &mut HashMap<u64, u64>,
                 detection_calls: &mut u64|
     -> Result<()> {
        if window.is_empty() {
            return Ok(());
        }
        let frames: Vec<FrameIndex> = window.iter().map(|w| w.frame).collect();
        let batch = ctx.detector().detect_batch_in_region(video, &frames, plan.region.as_ref());
        *detection_calls += frames.len() as u64;
        for (pixels, detections) in window.drain(..).zip(&batch) {
            let frame_rows = builder.rows_for_detections(video, pixels.frame, detections);

            // The detector's input is decoded once per frame: by the content filter
            // when the plan has one, otherwise here.
            if plan.content_filters.is_empty() {
                ctx.clock().charge(CostCategory::Decode, ctx.config().cost.decode_cost());
            }
            // Row-level predicate evaluation, including content UDFs over the
            // actual masks.
            for row in frame_rows {
                let keep = match &query.where_clause {
                    Some(predicate) => {
                        ctx.clock().charge(CostCategory::Filter, ctx.config().cost.filter_cost());
                        evaluate_row(predicate, &row, &pixels, &ctx.udfs())?.truthy()
                    }
                    None => true,
                };
                if !keep {
                    continue;
                }
                // Respect class requirements even when they came from HAVING clauses.
                if !info.requirements.is_empty()
                    && !info.requirements.iter().any(|r| r.class == row.class)
                {
                    continue;
                }
                *track_appearances.entry(row.trackid).or_insert(0) += 1;
                rows.push(row);
            }
        }
        Ok(())
    };

    let mut frame: FrameIndex = 0;
    while frame < video.len() {
        frames_considered += 1;
        let label_row = label_rows.as_mut().and_then(Iterator::next);

        // Content filter (cheapest learned filter, ~100,000 fps).
        let mut decoded = OnceCell::new();
        if !plan.content_filters.is_empty() {
            let pixels = render_full_frame(video, frame, &rendered)?;
            ctx.clock().charge(CostCategory::Decode, ctx.config().cost.decode_cost());
            let mut passes = true;
            for filter in &plan.content_filters {
                ctx.clock().charge(CostCategory::Filter, ctx.config().cost.filter_cost());
                let value = ctx
                    .udfs()
                    .call(&filter.udf, &pixels, &full)?
                    .as_number()
                    .unwrap_or(f64::NEG_INFINITY);
                if value < filter.frame_threshold {
                    passes = false;
                    break;
                }
            }
            if !passes {
                frame += plan.stride;
                continue;
            }
            decoded = OnceCell::from(pixels);
        }
        frames_after_content += 1;

        // Label filter: a lookup into the batched score index (the inference ran
        // when the index was built).
        if let Some((_, head, threshold)) = &plan.label_filter {
            let Some(row) = label_row else {
                return Err(BlazeItError::Internal(format!(
                    "label filter index ends before frame {frame} of the scanned video"
                )));
            };
            if row.tail_probability(*head, 1) < *threshold {
                frame += plan.stride;
                continue;
            }
        }
        frames_after_label += 1;

        window.push(DetectedFramePixels { video, frame, decoded, rendered: &rendered });
        if window.len() >= DETECT_PREFETCH {
            flush(
                &mut window,
                &mut builder,
                &mut rows,
                &mut track_appearances,
                &mut detection_calls,
            )?;
        }

        frame += plan.stride;
    }
    flush(&mut window, &mut builder, &mut rows, &mut track_appearances, &mut detection_calls)?;
    obs::count(obs::COUNTER_FRAMES_CONSIDERED, frames_considered);
    obs::count(obs::COUNTER_FRAMES_AFTER_CONTENT, frames_after_content);
    obs::count(obs::COUNTER_FRAMES_AFTER_LABEL, frames_after_label);
    obs::count(obs::COUNTER_FRAMES_RENDERED, rendered.get());

    // Track-duration (noise-reduction) constraint: keep only tracks seen often enough.
    if plan.min_track_appearances > 1 {
        let qualifying: std::collections::HashSet<u64> = track_appearances
            .iter()
            .filter(|(_, &count)| count >= plan.min_track_appearances)
            .map(|(&id, _)| id)
            .collect();
        rows.retain(|r| qualifying.contains(&r.trackid));
    }

    Ok((rows, detection_calls))
}

/// The paper's Figure 3c query, parameterized by video name and redness/area/duration
/// thresholds — used by examples, tests and the Figure 10/11 harnesses.
pub fn red_bus_query(video: &str, redness: f64, min_area: f64, min_frames: u64) -> String {
    format!(
        "SELECT * FROM {video} WHERE class = 'bus' AND redness(content) >= {redness} \
         AND area(mask) > {min_area} GROUP BY trackid HAVING COUNT(*) > {min_frames}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::label_filter_heads;
    use blazeit_frameql::parse_query;
    use blazeit_frameql::query::analyze;
    use blazeit_videostore::DatasetPreset;

    fn engine() -> (Catalog, Arc<VideoContext>) {
        Catalog::one_video(DatasetPreset::Taipei, 2_000)
    }

    /// The filter plan a fresh sub-plan resolves to under `options`.
    fn plan_filters(
        ctx: &VideoContext,
        info: &QueryPlanInfo,
        options: &SelectionOptions,
    ) -> Result<FilterPlan> {
        resolve_filters(ctx, info, options, &label_filter_heads(ctx, info))
    }

    /// One selection scan's rows, detector calls and per-stage frame counts.
    struct SelectionOutcome {
        rows: Vec<FrameQlRow>,
        detection_calls: u64,
        frames_considered: u64,
        frames_after_content: u64,
        frames_after_label: u64,
        frames_rendered: u64,
    }

    /// Runs one selection scan under a trace collector and reads its per-stage frame
    /// counts off the `filter-detect` span it opens, where `EXPLAIN ANALYZE` prints
    /// them.
    fn traced_scan(
        ctx: &VideoContext,
        scan: impl FnOnce() -> Result<(Vec<FrameQlRow>, u64)>,
    ) -> Result<SelectionOutcome> {
        let collector = obs::install_collector(Arc::clone(ctx.clock()));
        let scanned = scan();
        let trace = collector.finish();
        let (rows, detection_calls) = scanned?;
        let span = trace.spans.iter().find(|s| s.label == "filter-detect").unwrap();
        let count = |name: &str| span.counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1);
        Ok(SelectionOutcome {
            rows,
            detection_calls,
            frames_considered: count(obs::COUNTER_FRAMES_CONSIDERED),
            frames_after_content: count(obs::COUNTER_FRAMES_AFTER_CONTENT),
            frames_after_label: count(obs::COUNTER_FRAMES_AFTER_LABEL),
            frames_rendered: count(obs::COUNTER_FRAMES_RENDERED),
        })
    }

    /// Resolves and runs a selection under `options`, with its per-stage counts.
    fn execute_with_options(
        ctx: &VideoContext,
        query: &Query,
        info: &QueryPlanInfo,
        options: &SelectionOptions,
    ) -> Result<SelectionOutcome> {
        let plan = plan_filters(ctx, info, options)?;
        traced_scan(ctx, || run_selection(ctx, query, info, &plan))
    }

    fn red_bus_info(engine: &VideoContext) -> (Query, QueryPlanInfo) {
        // Lower thresholds than the paper's 17.5/100k since the synthetic streams are
        // smaller; the structure of the query is identical to Figure 3c.
        let sql = red_bus_query("taipei", 10.0, 20_000.0, 15);
        let q = parse_query(&sql).unwrap();
        let info = analyze(&q, &engine.udfs()).unwrap();
        (q, info)
    }

    #[test]
    fn plan_includes_all_filter_classes_for_red_bus_query() {
        let (_, e) = engine();
        let (_q, info) = red_bus_info(&e);
        let plan = plan_filters(&e, &info, &SelectionOptions::all()).unwrap();
        // Temporal: HAVING COUNT(*) > 15 → stride (16-1)/2 = 7.
        assert_eq!(plan.stride, 7);
        assert!(plan.min_track_appearances >= 2);
        // Content: redness is liftable, and red buses exist in the labeled days.
        assert_eq!(plan.content_filters.len(), 1);
        assert_eq!(plan.content_filters[0].udf, "redness");
        // Label filter for buses.
        assert!(plan.label_filter.is_some());
        // Spatial region inferred from where buses appear (lane band), smaller than frame.
        if let Some(region) = plan.region {
            let (w, h) = e.video().resolution();
            assert!(region.area() < w * h);
        }
    }

    #[test]
    fn disabled_options_remove_filters() {
        let (_, e) = engine();
        let (_q, info) = red_bus_info(&e);
        let plan = plan_filters(&e, &info, &SelectionOptions::none()).unwrap();
        assert_eq!(plan.stride, 1);
        assert!(plan.content_filters.is_empty());
        assert!(plan.label_filter.is_none());
        assert!(plan.region.is_none());
    }

    #[test]
    fn filtered_plan_uses_fewer_detector_calls_than_unfiltered() {
        let (_, e) = engine();
        let (q, info) = red_bus_info(&e);
        let filtered = execute_with_options(&e, &q, &info, &SelectionOptions::all()).unwrap();
        let unfiltered = execute_with_options(&e, &q, &info, &SelectionOptions::none()).unwrap();
        assert!(
            filtered.detection_calls < unfiltered.detection_calls,
            "filtered {} vs unfiltered {}",
            filtered.detection_calls,
            unfiltered.detection_calls
        );
        assert!(filtered.frames_after_label <= filtered.frames_after_content);
        assert!(filtered.frames_after_content <= filtered.frames_considered);
    }

    #[test]
    fn returned_rows_satisfy_the_predicate() {
        let (_, e) = engine();
        let (q, info) = red_bus_info(&e);
        let outcome = execute_with_options(&e, &q, &info, &SelectionOptions::all()).unwrap();
        for row in &outcome.rows {
            assert_eq!(row.class, ObjectClass::Bus);
            assert!(row.mask.area() > 20_000.0);
        }
    }

    #[test]
    fn false_negative_rate_against_naive_is_bounded() {
        let (_, e) = engine();
        let (q, info) = red_bus_info(&e);
        let blazeit = execute_with_options(&e, &q, &info, &SelectionOptions::all()).unwrap();
        // Naive plan (stride 1, no learned filters) acts as the reference result set.
        // Result sets are compared through ground-truth track identity, because the
        // tracker assigns fresh ids on every scan.
        let naive = execute_with_options(&e, &q, &info, &SelectionOptions::none()).unwrap();
        let naive_tracks = ground_truth_tracks(&e, &naive.rows);
        if naive_tracks.is_empty() {
            return; // No red buses in this sample — nothing to compare.
        }
        let blazeit_tracks = ground_truth_tracks(&e, &blazeit.rows);
        let found = naive_tracks.iter().filter(|t| blazeit_tracks.contains(t)).count();
        let recall = found as f64 / naive_tracks.len() as f64;
        assert!(
            recall >= 0.5,
            "BlazeIt found only {found}/{} of the naive plan's tracks",
            naive_tracks.len()
        );
    }

    #[test]
    fn select_query_end_to_end_through_engine() {
        let (catalog, e) = engine();
        let sql = red_bus_query("taipei", 10.0, 20_000.0, 15);
        let result = catalog.session().query(&sql).unwrap();
        match result.output {
            QueryOutput::Rows { detection_calls, .. } => {
                assert!(detection_calls < e.video().len());
            }
            other => panic!("unexpected output {other:?}"),
        }
        assert!(result.runtime_secs() > 0.0);
    }

    #[test]
    fn explain_analyze_reports_frames_rendered_per_span() {
        let (catalog, e) = Catalog::one_video(DatasetPreset::Taipei, 600);
        let spans = |sql: &str| {
            let result = catalog.session().query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            let trace = result.output.analyze_trace().unwrap().clone();
            let rendered = |label: &str| {
                let span = trace.spans.iter().find(|s| s.label == label).unwrap();
                span.counters
                    .iter()
                    .find(|(name, _)| name == obs::COUNTER_FRAMES_RENDERED)
                    .map(|c| c.1)
            };
            (rendered("calibrate filters"), rendered("filter-detect"), trace.to_string())
        };

        // Nothing reads a pixel: nothing is calibrated, and the scan says so.
        let (calibrate, scan, text) =
            spans("SELECT * FROM taipei WHERE class = 'car' AND area(mask) > 20000");
        assert_eq!((calibrate, scan), (None, Some(0)));
        assert!(text.contains("frames_rendered=0"), "{text}");

        // The red-bus query calibrates its content filter over the held-out day, and
        // the scan's span carries the count the outcome reports.
        let sql = red_bus_query("taipei", 2.0, 10_000.0, 5);
        let (calibrate, scan, _) = spans(&sql);
        assert_eq!(calibrate, Some(e.labeled().heldout().frames.len() as u64));
        let q = parse_query(&sql).unwrap();
        let info = analyze(&q, &e.udfs()).unwrap();
        let outcome = execute_with_options(&e, &q, &info, &SelectionOptions::all()).unwrap();
        assert!(outcome.frames_rendered > 0);
        assert_eq!(scan, Some(outcome.frames_rendered));
    }

    /// The frame-by-frame, render-everything scan the engine must be indistinguishable
    /// from (the pre-batching, pre-demand-rendering implementation, kept verbatim as
    /// the reference; its `frames_rendered` is what eagerness costs). It opens and
    /// counts on the same span as `run_selection`, so a traced run of either charges
    /// through the same span ledger.
    fn run_selection_serial_reference(
        ctx: &VideoContext,
        query: &Query,
        info: &QueryPlanInfo,
        plan: &FilterPlan,
    ) -> Result<(Vec<FrameQlRow>, u64)> {
        let _select = obs::span("filter-detect");
        let video = ctx.video();
        let video = &*video;
        let (width, height) = video.resolution();
        let full = BoundingBox::new(0.0, 0.0, width, height);
        let mut builder =
            RelationBuilder::new(ctx.detector(), ctx.config().tracker_iou, plan.stride);

        let mut rows: Vec<FrameQlRow> = Vec::new();
        let mut track_appearances: HashMap<u64, u64> = HashMap::new();
        let mut detection_calls = 0u64;
        let mut frames_considered = 0u64;
        let mut frames_after_content = 0u64;
        let mut frames_after_label = 0u64;
        let mut frames_rendered = 0u64;

        let mut frame: FrameIndex = 0;
        while frame < video.len() {
            frames_considered += 1;
            let mut decoded = None;
            if !plan.content_filters.is_empty() {
                let pixels = video.frame(frame)?;
                frames_rendered += 1;
                ctx.clock().charge(CostCategory::Decode, ctx.config().cost.decode_cost());
                let mut passes = true;
                for filter in &plan.content_filters {
                    ctx.clock().charge(CostCategory::Filter, ctx.config().cost.filter_cost());
                    let value = ctx
                        .udfs()
                        .call(&filter.udf, &pixels, &full)?
                        .as_number()
                        .unwrap_or(f64::NEG_INFINITY);
                    if value < filter.frame_threshold {
                        passes = false;
                        break;
                    }
                }
                decoded = Some(pixels);
                if !passes {
                    frame += plan.stride;
                    continue;
                }
            }
            frames_after_content += 1;

            if let Some((scores, head, threshold)) = &plan.label_filter {
                let p = scores.tail_probability(frame as usize, *head, 1);
                if p < *threshold {
                    frame += plan.stride;
                    continue;
                }
            }
            frames_after_label += 1;

            let frame_rows = builder.rows_for_frame(video, frame, plan.region.as_ref());
            detection_calls += 1;

            let pixels = match decoded {
                Some(p) => p,
                None => {
                    let p = video.frame(frame)?;
                    frames_rendered += 1;
                    ctx.clock().charge(CostCategory::Decode, ctx.config().cost.decode_cost());
                    p
                }
            };
            for row in frame_rows {
                let keep = match &query.where_clause {
                    Some(predicate) => {
                        ctx.clock().charge(CostCategory::Filter, ctx.config().cost.filter_cost());
                        evaluate_row(predicate, &row, &pixels, &ctx.udfs())?.truthy()
                    }
                    None => true,
                };
                if !keep {
                    continue;
                }
                if !info.requirements.is_empty()
                    && !info.requirements.iter().any(|r| r.class == row.class)
                {
                    continue;
                }
                *track_appearances.entry(row.trackid).or_insert(0) += 1;
                rows.push(row);
            }
            frame += plan.stride;
        }

        if plan.min_track_appearances > 1 {
            let qualifying: std::collections::HashSet<u64> = track_appearances
                .iter()
                .filter(|(_, &count)| count >= plan.min_track_appearances)
                .map(|(&id, _)| id)
                .collect();
            rows.retain(|r| qualifying.contains(&r.trackid));
        }

        obs::count(obs::COUNTER_FRAMES_CONSIDERED, frames_considered);
        obs::count(obs::COUNTER_FRAMES_AFTER_CONTENT, frames_after_content);
        obs::count(obs::COUNTER_FRAMES_AFTER_LABEL, frames_after_label);
        obs::count(obs::COUNTER_FRAMES_RENDERED, frames_rendered);
        Ok((rows, detection_calls))
    }

    #[test]
    fn batched_selection_scan_matches_serial_loop_exactly() {
        // Two identical engines per video (deterministic substrate): one scans
        // through the pipelined detect_batch prefetch window and renders on demand,
        // the other through the frame-by-frame, render-everything reference.
        // Returned rows, per-stage counts, and every charged cost category must
        // agree — with all filters on (sparse, ragged windows) and all filters off
        // (every window full) — while `frames_rendered` is exactly the frames
        // something read.
        //
        // A case is (query, lifts a content filter, classes whose rows reach a
        // content UDF). The last two Taipei queries read pixels through predicates
        // that never appear in `QueryPlanInfo::content_predicates`; the Amsterdam
        // one is the benchmark's selection shape, where nothing reads a pixel.
        type Case = (String, bool, fn(ObjectClass) -> bool);
        let bus: fn(ObjectClass) -> bool = |class| class == ObjectClass::Bus;
        let car: fn(ObjectClass) -> bool = |class| class == ObjectClass::Car;
        let taipei: [Case; 4] = [
            (red_bus_query("taipei", 10.0, 20_000.0, 15), true, bus),
            (red_bus_query("taipei", 2.0, 10_000.0, 5), true, bus),
            ("SELECT * FROM taipei WHERE class = 'car' OR redness(content) >= 10".into(), false, {
                |class| class != ObjectClass::Car
            }),
            (
                "SELECT * FROM taipei WHERE class = 'car' AND 10.0 <= redness(content)".into(),
                false,
                car,
            ),
        ];
        let amsterdam: [Case; 1] = [(
            "SELECT * FROM amsterdam WHERE class = 'car' AND area(mask) > 10000".into(),
            false,
            |_| false,
        )];
        let amsterdam_engines = || Catalog::one_video(DatasetPreset::Amsterdam, 600).1;
        let engines = [
            (engine().1, engine().1, &taipei[..]),
            (amsterdam_engines(), amsterdam_engines(), &amsterdam[..]),
        ];

        for (batched_engine, serial_engine, cases) in &engines {
            for (sql, lifted, reads_pixels) in cases.iter() {
                let q = parse_query(sql).unwrap();
                let info = analyze(&q, &batched_engine.udfs()).unwrap();
                assert_eq!(!info.content_predicates.is_empty(), *lifted, "{sql}");
                // Frames holding a row of a class whose evaluation reads pixels.
                let video = serial_engine.video();
                let reading = (0..video.len())
                    .filter(|&f| {
                        let detections = serial_engine.detector().detect_in_region(&video, f, None);
                        detections.iter().any(|d| reads_pixels(d.class))
                    })
                    .count() as u64;
                for options in [SelectionOptions::all(), SelectionOptions::none()] {
                    let plan_b = plan_filters(batched_engine, &info, &options).unwrap();
                    let plan_s = plan_filters(serial_engine, &info, &options).unwrap();

                    let before_b = batched_engine.clock().breakdown();
                    let batched = traced_scan(batched_engine, || {
                        run_selection(batched_engine, &q, &info, &plan_b)
                    })
                    .unwrap();
                    let charged_b = batched_engine.clock().breakdown().since(&before_b);

                    let before_s = serial_engine.clock().breakdown();
                    let serial = traced_scan(serial_engine, || {
                        run_selection_serial_reference(serial_engine, &q, &info, &plan_s)
                    })
                    .unwrap();
                    let charged_s = serial_engine.clock().breakdown().since(&before_s);

                    let case = format!("{sql} with {options:?}");
                    assert_eq!(batched.rows, serial.rows, "{case}");
                    assert_eq!(batched.detection_calls, serial.detection_calls, "{case}");
                    assert_eq!(batched.frames_considered, serial.frames_considered, "{case}");
                    assert_eq!(batched.frames_after_content, serial.frames_after_content, "{case}");
                    assert_eq!(batched.frames_after_label, serial.frames_after_label, "{case}");
                    assert!(
                        (charged_b.detection - charged_s.detection).abs() < 1e-9,
                        "detection seconds diverged for {case}: {} vs {}",
                        charged_b.detection,
                        charged_s.detection
                    );
                    // Decode and Filter are charged at the same sites in the same
                    // amounts, rendered or not.
                    assert_eq!(charged_b.decode, charged_s.decode, "{case}");
                    assert_eq!(charged_b.filter, charged_s.filter, "{case}");

                    if !plan_b.content_filters.is_empty() {
                        // The content filter reads every scanned frame; the survivors'
                        // buffers seed the source, so row evaluation adds none.
                        assert!(*lifted && options.use_content_filter, "{case}");
                        assert_eq!(batched.frames_rendered, batched.frames_considered, "{case}");
                        assert_eq!(serial.frames_rendered, serial.frames_considered, "{case}");
                        continue;
                    }
                    // The eager scan rendered every detected frame; on demand only
                    // those a content UDF read — unfiltered (every frame detected over
                    // the full frame), exactly the `reading` ones.
                    assert_eq!(serial.frames_rendered, serial.detection_calls, "{case}");
                    if options == SelectionOptions::none() {
                        assert_eq!(batched.frames_rendered, reading, "{case}");
                    } else if reading == 0 {
                        assert_eq!(batched.frames_rendered, 0, "{case}");
                    } else {
                        assert!(batched.frames_rendered <= batched.detection_calls, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_spatial_constraints_define_the_region() {
        let (_, e) = engine();
        let sql =
            "SELECT * FROM taipei WHERE class = 'car' AND xmax(mask) < 720 AND ymin(mask) >= 100";
        let q = parse_query(sql).unwrap();
        let info = analyze(&q, &e.udfs()).unwrap();
        let plan = plan_filters(&e, &info, &SelectionOptions::all()).unwrap();
        let region = plan.region.expect("explicit constraints must yield a region");
        assert!(region.xmax <= 720.0);
        assert!(region.ymin >= 100.0);
    }

    #[test]
    fn label_filtered_scan_covers_the_indexed_snapshot_while_the_stream_grows() {
        let stream = Catalog::new();
        let ctx = stream
            .register_stream_preset(
                DatasetPreset::Taipei,
                1_500,
                1_000,
                crate::stream::DriftConfig::disabled(),
            )
            .unwrap();
        let fixed = Catalog::new();
        let fixed_ctx = fixed
            .register((*ctx.video()).clone(), Arc::clone(ctx.labeled()), ctx.config().clone())
            .unwrap();
        let q = parse_query("SELECT * FROM taipei WHERE class = 'car'").unwrap();
        let info = analyze(&q, &ctx.udfs()).unwrap();
        let options = SelectionOptions::all();

        // The label filter's index covers 1000 frames; 256 more land before the scan,
        // which must walk exactly the frames the index covers.
        let plan = plan_filters(&ctx, &info, &options).unwrap();
        assert!(plan.label_filter.is_some());
        stream.stream("taipei").unwrap().advance(256).unwrap();
        assert_eq!((plan.video.len(), ctx.video().len()), (1_000, 1_256));
        let streamed = run_selection(&ctx, &q, &info, &plan).unwrap();

        let fixed_plan = plan_filters(&fixed_ctx, &info, &options).unwrap();
        let expected = run_selection(&fixed_ctx, &q, &info, &fixed_plan).unwrap();
        assert!(!expected.0.is_empty());
        assert_eq!(streamed, expected);
    }
}
