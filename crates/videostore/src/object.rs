//! Object classes, colors and ground-truth objects.
//!
//! The scene simulator produces [`GroundTruthObject`]s: the "real" objects visible in a
//! frame, before any detector noise. The simulated detector in `blazeit-detect` observes
//! these through a noise model; the FrameQL relation is populated from the detector's
//! (noisy) output, exactly as BlazeIt treats Mask R-CNN's output as ground truth for
//! accuracy purposes.

use crate::geometry::BoundingBox;
use crate::track::TrackId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Object classes understood by the simulator and the (simulated) detectors.
///
/// These mirror the MS-COCO classes the paper actually queries (car, bus, boat) plus a
/// few extra classes used in the motivating use cases (person for store planning,
/// bird for ornithology, truck as a common confuser class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ObjectClass {
    /// Passenger car.
    Car,
    /// Bus (tour bus, transit bus, ...).
    Bus,
    /// Boat (rialto / grand-canal streams).
    Boat,
    /// Pedestrian.
    Person,
    /// Truck / lorry.
    Truck,
    /// Bird (ornithology use case).
    Bird,
    /// Bicycle.
    Bicycle,
    /// Motorcycle.
    Motorcycle,
}

impl ObjectClass {
    /// All classes known to the simulator, in a stable order.
    pub const ALL: [ObjectClass; 8] = [
        ObjectClass::Car,
        ObjectClass::Bus,
        ObjectClass::Boat,
        ObjectClass::Person,
        ObjectClass::Truck,
        ObjectClass::Bird,
        ObjectClass::Bicycle,
        ObjectClass::Motorcycle,
    ];

    /// The canonical lower-case name used in FrameQL queries (`class = 'car'`).
    pub fn name(&self) -> &'static str {
        match self {
            ObjectClass::Car => "car",
            ObjectClass::Bus => "bus",
            ObjectClass::Boat => "boat",
            ObjectClass::Person => "person",
            ObjectClass::Truck => "truck",
            ObjectClass::Bird => "bird",
            ObjectClass::Bicycle => "bicycle",
            ObjectClass::Motorcycle => "motorcycle",
        }
    }

    /// Parses a class from its FrameQL name (case-insensitive).
    pub fn parse(name: &str) -> Option<ObjectClass> {
        let lower = name.to_ascii_lowercase();
        ObjectClass::ALL.iter().copied().find(|c| c.name() == lower)
    }

    /// A stable small integer id for use as a feature / model output index.
    pub fn index(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "ObjectClass::ALL enumerates every variant of the enum, so position() is \
                      total over Self."
        )]
        ObjectClass::ALL.iter().position(|c| c == self).expect("class in ALL")
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An RGB color, used both for rendering objects and for content-based UDFs
/// (`redness`, `blueness`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Color {
    /// Red channel (0-255).
    pub r: u8,
    /// Green channel (0-255).
    pub g: u8,
    /// Blue channel (0-255).
    pub b: u8,
}

impl Color {
    /// Creates a color from RGB components.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Self {
        Color { r, g, b }
    }

    /// A saturated red, used for "red tour buses".
    pub const RED: Color = Color::rgb(210, 40, 35);
    /// A near-white, used for "white transit buses".
    pub const WHITE: Color = Color::rgb(235, 235, 230);
    /// A mid grey (typical car color).
    pub const GREY: Color = Color::rgb(128, 130, 135);
    /// A dark blue.
    pub const BLUE: Color = Color::rgb(40, 60, 200);
    /// A black-ish color.
    pub const BLACK: Color = Color::rgb(25, 25, 30);
    /// A yellow (taxis, some buses).
    pub const YELLOW: Color = Color::rgb(230, 200, 40);
    /// A green.
    pub const GREEN: Color = Color::rgb(40, 170, 60);

    /// Mean of the red channel relative to the other channels, in `[0, 255]`.
    ///
    /// This is the same quantity the `redness` UDF computes over pixels; having it on
    /// the color lets tests check that rendering preserves the signal.
    pub fn redness(&self) -> f32 {
        self.r as f32 - (self.g as f32 + self.b as f32) / 2.0
    }

    /// Blueness analogue of [`Color::redness`].
    pub fn blueness(&self) -> f32 {
        self.b as f32 - (self.r as f32 + self.g as f32) / 2.0
    }

    /// Luminance (perceived brightness) in `[0, 255]`.
    pub fn luminance(&self) -> f32 {
        0.299 * self.r as f32 + 0.587 * self.g as f32 + 0.114 * self.b as f32
    }
}

/// A ground-truth object visible in a single frame.
///
/// One of these exists for every (object, frame) pair in which the object is visible;
/// this is exactly the granularity of the FrameQL relation (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthObject {
    /// The ground-truth track this object belongs to.
    pub track_id: TrackId,
    /// Object class.
    pub class: ObjectClass,
    /// Bounding box in nominal-resolution coordinates, clamped to the frame.
    pub bbox: BoundingBox,
    /// Dominant color of the object (drives rendering and content UDFs).
    pub color: Color,
    /// How "easy" the object is to detect, in `(0, 1]`.
    ///
    /// Smaller objects and low-contrast objects get lower visibility; the simulated
    /// detector uses this to decide miss probability and confidence, mirroring the
    /// paper's observation that detectors struggle with small objects.
    pub visibility: f32,
}

impl GroundTruthObject {
    /// Convenience constructor with full visibility.
    pub fn new(track_id: TrackId, class: ObjectClass, bbox: BoundingBox, color: Color) -> Self {
        GroundTruthObject { track_id, class, bbox, color, visibility: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_roundtrip_names() {
        for c in ObjectClass::ALL {
            assert_eq!(ObjectClass::parse(c.name()), Some(c));
        }
    }

    #[test]
    fn class_parse_case_insensitive() {
        assert_eq!(ObjectClass::parse("CAR"), Some(ObjectClass::Car));
        assert_eq!(ObjectClass::parse("Bus"), Some(ObjectClass::Bus));
        assert_eq!(ObjectClass::parse("submarine"), None);
    }

    #[test]
    fn class_indices_are_unique_and_dense() {
        let mut seen = vec![false; ObjectClass::ALL.len()];
        for c in ObjectClass::ALL {
            let i = c.index();
            assert!(i < ObjectClass::ALL.len());
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
    }

    #[test]
    fn red_is_redder_than_white() {
        assert!(Color::RED.redness() > Color::WHITE.redness());
        assert!(Color::RED.redness() > 100.0);
        assert!(Color::WHITE.redness().abs() < 20.0);
    }

    #[test]
    fn blue_is_bluer_than_red() {
        assert!(Color::BLUE.blueness() > Color::RED.blueness());
    }

    #[test]
    fn luminance_ordering() {
        assert!(Color::WHITE.luminance() > Color::GREY.luminance());
        assert!(Color::GREY.luminance() > Color::BLACK.luminance());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ObjectClass::Boat.to_string(), "boat");
    }
}
