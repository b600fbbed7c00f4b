//! Frames: small RGB pixel buffers plus metadata.
//!
//! Real 720p/2160p frames would be far too expensive to synthesize and store for
//! millions of frames, and nothing in BlazeIt depends on full-resolution pixels: the
//! specialized NNs consume 65x65 thumbnails and the content UDFs compute channel
//! statistics. Frames are therefore rendered at a small internal resolution
//! (default 96x54, preserving 16:9) while all *coordinates* (masks, crops, areas)
//! remain in the nominal resolution of the stream. [`Frame::scale_x`]/[`Frame::scale_y`]
//! convert between the two.

#![expect(
    clippy::indexing_slicing,
    reason = "RGB pixel kernel: rows come from chunks_exact(3) and (x, y) are bounded by the \
              frame's own width/height"
)]

use crate::geometry::BoundingBox;
use crate::object::Color;
use serde::{Deserialize, Serialize};

/// Index of a frame within a video (0-based).
pub type FrameIndex = u64;

/// A timestamp in seconds from the start of the video.
pub type Timestamp = f64;

/// A rendered video frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Index of this frame within its video.
    pub index: FrameIndex,
    /// Timestamp in seconds (`index / fps`).
    pub timestamp: Timestamp,
    /// Nominal stream width in pixels (e.g. 1280).
    pub nominal_width: f32,
    /// Nominal stream height in pixels (e.g. 720).
    pub nominal_height: f32,
    /// Internal pixel-buffer width.
    pub width: usize,
    /// Internal pixel-buffer height.
    pub height: usize,
    /// Row-major RGB bytes, `width * height * 3` long.
    pub pixels: Vec<u8>,
}

impl Frame {
    /// Creates a frame filled with a single color.
    pub fn filled(
        index: FrameIndex,
        timestamp: Timestamp,
        nominal: (f32, f32),
        size: (usize, usize),
        color: Color,
    ) -> Self {
        let (width, height) = size;
        let mut pixels = vec![0u8; width * height * 3];
        for px in pixels.chunks_exact_mut(3) {
            px[0] = color.r;
            px[1] = color.g;
            px[2] = color.b;
        }
        Frame {
            index,
            timestamp,
            nominal_width: nominal.0,
            nominal_height: nominal.1,
            width,
            height,
            pixels,
        }
    }

    /// Horizontal scale factor from nominal coordinates to buffer coordinates.
    pub fn scale_x(&self) -> f32 {
        self.width as f32 / self.nominal_width
    }

    /// Vertical scale factor from nominal coordinates to buffer coordinates.
    pub fn scale_y(&self) -> f32 {
        self.height as f32 / self.nominal_height
    }

    /// Reads the pixel at buffer coordinates `(x, y)`.
    ///
    /// Coordinates outside the buffer are clamped to the nearest valid pixel.
    pub fn pixel(&self, x: usize, y: usize) -> Color {
        let x = x.min(self.width.saturating_sub(1));
        let y = y.min(self.height.saturating_sub(1));
        let i = (y * self.width + x) * 3;
        Color::rgb(self.pixels[i], self.pixels[i + 1], self.pixels[i + 2])
    }

    /// Writes the pixel at buffer coordinates `(x, y)`; out-of-range writes are ignored.
    pub fn set_pixel(&mut self, x: usize, y: usize, color: Color) {
        if x >= self.width || y >= self.height {
            return;
        }
        let i = (y * self.width + x) * 3;
        self.pixels[i] = color.r;
        self.pixels[i + 1] = color.g;
        self.pixels[i + 2] = color.b;
    }

    /// Converts a nominal-coordinate bounding box into an inclusive-exclusive pixel
    /// rectangle `(x0, y0, x1, y1)` in buffer coordinates, clamped to the buffer.
    pub fn buffer_rect(&self, bbox: &BoundingBox) -> (usize, usize, usize, usize) {
        buffer_rect_in(self.nominal_width, self.nominal_height, self.width, self.height, bbox)
    }

    /// Mean color over the whole frame.
    pub fn mean_color(&self) -> (f32, f32, f32) {
        self.mean_color_in(&BoundingBox::new(0.0, 0.0, self.nominal_width, self.nominal_height))
    }

    /// Mean color over the pixels covered by a nominal-coordinate bounding box.
    ///
    /// Degenerate regions fall back to the single nearest pixel so the result is always
    /// well defined; this mirrors OpenCV-style mean-over-ROI used by the paper's UDFs.
    pub fn mean_color_in(&self, bbox: &BoundingBox) -> (f32, f32, f32) {
        let (x0, y0, x1, y1) = self.buffer_rect(bbox);
        let (x1, y1) =
            (x1.max(x0 + 1).min(self.width.max(1)), y1.max(y0 + 1).min(self.height.max(1)));
        let mut sum = (0.0f64, 0.0f64, 0.0f64);
        let mut n = 0u64;
        for y in y0..y1 {
            for x in x0..x1 {
                let c = self.pixel(x, y);
                sum.0 += c.r as f64;
                sum.1 += c.g as f64;
                sum.2 += c.b as f64;
                n += 1;
            }
        }
        if n == 0 {
            let c = self.pixel(x0, y0);
            return (c.r as f32, c.g as f32, c.b as f32);
        }
        ((sum.0 / n as f64) as f32, (sum.1 / n as f64) as f32, (sum.2 / n as f64) as f32)
    }

    /// The "redness" of a region: mean red channel minus the mean of the other two.
    ///
    /// This is the frame-level liftable UDF from Section 8.1 of the paper.
    pub fn redness_in(&self, bbox: &BoundingBox) -> f32 {
        let (r, g, b) = self.mean_color_in(bbox);
        r - (g + b) / 2.0
    }

    /// The "blueness" of a region (see [`Frame::redness_in`]).
    pub fn blueness_in(&self, bbox: &BoundingBox) -> f32 {
        let (r, g, b) = self.mean_color_in(bbox);
        b - (r + g) / 2.0
    }

    /// Total number of pixels in the internal buffer.
    pub fn num_pixels(&self) -> usize {
        self.width * self.height
    }
}

/// The buffer-coordinate rectangle a nominal-coordinate `bbox` maps to for a
/// `width x height` buffer over the given nominal dimensions.
///
/// Shared by [`Frame::buffer_rect`] and the sparse renderer
/// ([`crate::render::Renderer::render_sampled`]), which must agree exactly on
/// where object rectangles land without materializing a full-size frame.
pub fn buffer_rect_in(
    nominal_width: f32,
    nominal_height: f32,
    width: usize,
    height: usize,
    bbox: &BoundingBox,
) -> (usize, usize, usize, usize) {
    let sx = width as f32 / nominal_width;
    let sy = height as f32 / nominal_height;
    let x0 = (bbox.xmin * sx).floor().max(0.0) as usize;
    let y0 = (bbox.ymin * sy).floor().max(0.0) as usize;
    let x1 = ((bbox.xmax * sx).ceil() as usize).min(width);
    let y1 = ((bbox.ymax * sy).ceil() as usize).min(height);
    (x0.min(width), y0.min(height), x1, y1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> Frame {
        Frame::filled(0, 0.0, (1280.0, 720.0), (96, 54), Color::rgb(10, 20, 30))
    }

    #[test]
    fn filled_frame_has_uniform_pixels() {
        let f = blank();
        assert_eq!(f.pixels.len(), 96 * 54 * 3);
        assert_eq!(f.pixel(0, 0), Color::rgb(10, 20, 30));
        assert_eq!(f.pixel(95, 53), Color::rgb(10, 20, 30));
    }

    #[test]
    fn set_and_get_pixel() {
        let mut f = blank();
        f.set_pixel(10, 10, Color::RED);
        assert_eq!(f.pixel(10, 10), Color::RED);
        // Out-of-bounds write is a no-op, read clamps.
        f.set_pixel(1000, 1000, Color::BLUE);
        assert_eq!(f.pixel(1000, 1000), f.pixel(95, 53));
    }

    #[test]
    fn scale_factors() {
        let f = blank();
        assert!((f.scale_x() - 96.0 / 1280.0).abs() < 1e-6);
        assert!((f.scale_y() - 54.0 / 720.0).abs() < 1e-6);
    }

    #[test]
    fn buffer_rect_maps_full_frame() {
        let f = blank();
        let full = BoundingBox::new(0.0, 0.0, 1280.0, 720.0);
        assert_eq!(f.buffer_rect(&full), (0, 0, 96, 54));
    }

    #[test]
    fn mean_color_uniform() {
        let f = blank();
        let (r, g, b) = f.mean_color();
        assert!((r - 10.0).abs() < 1e-3);
        assert!((g - 20.0).abs() < 1e-3);
        assert!((b - 30.0).abs() < 1e-3);
    }

    #[test]
    fn redness_detects_red_region() {
        let mut f = blank();
        // Paint the left half red (in buffer coordinates 0..48).
        for y in 0..54 {
            for x in 0..48 {
                f.set_pixel(x, y, Color::RED);
            }
        }
        let left = BoundingBox::new(0.0, 0.0, 640.0, 720.0);
        let right = BoundingBox::new(640.0, 0.0, 1280.0, 720.0);
        assert!(f.redness_in(&left) > 100.0);
        assert!(f.redness_in(&right) < 10.0);
        // Whole-frame redness sits between the two: the basis of frame-level filters.
        let whole = f.redness_in(&BoundingBox::new(0.0, 0.0, 1280.0, 720.0));
        assert!(whole > f.redness_in(&right) && whole < f.redness_in(&left));
    }

    #[test]
    fn mean_color_degenerate_region() {
        let f = blank();
        let tiny = BoundingBox::new(5.0, 5.0, 5.0, 5.0);
        let (r, _, _) = f.mean_color_in(&tiny);
        assert!((r - 10.0).abs() < 1e-3);
    }
}
