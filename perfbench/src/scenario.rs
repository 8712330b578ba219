//! The carved domains the workloads solve on, with the region point reads
//! are drawn from.

use carve_fem::serve::{geometry_hash, ScenarioSpec};
use carve_geom::{CarvedSolids, RetainBox, Sphere, Subdomain};
use carve_sfc::Curve;

use crate::rhs::Rng;

/// Geometry of a scenario, kept as plain data so every rank can build its
/// own `Subdomain` and the probe-point sampler knows the retained region.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// The unit cube with a sphere carved out.
    CarvedSphere { center: [f64; 3], radius: f64 },
    /// The retained box `[0,1] × [0,h] × [0,h]` (the §4.5.1 channel).
    Channel { height: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub name: &'static str,
    pub shape: Shape,
    pub spec: ScenarioSpec,
}

impl Scenario {
    pub fn sphere(name: &'static str, radius: f64, base: u8, boundary: u8, order: u64) -> Self {
        let center = [0.5; 3];
        Scenario {
            name,
            shape: Shape::CarvedSphere { center, radius },
            spec: spec(
                &format!("carved-sphere:0.5,r{radius}"),
                base,
                boundary,
                order,
            ),
        }
    }

    pub fn channel(name: &'static str, base: u8, boundary: u8, order: u64) -> Self {
        let height = 1.0 / 16.0;
        Scenario {
            name,
            shape: Shape::Channel { height },
            spec: spec(
                &format!("channel:1,{height},{height}"),
                base,
                boundary,
                order,
            ),
        }
    }

    pub fn domain(&self) -> Box<dyn Subdomain<3>> {
        match self.shape {
            Shape::CarvedSphere { center, radius } => Box::new(CarvedSolids::new(vec![Box::new(
                Sphere::new(center, radius),
            )])),
            Shape::Channel { height } => Box::new(RetainBox::channel([1.0, height, height])),
        }
    }

    /// `n` seeded points strictly inside the retained region. Every such
    /// point is covered by a mesh leaf: a carved leaf lies wholly inside
    /// the (convex) carved solid, and the channel's faces sit on the
    /// octree lattice.
    pub fn probe_points(&self, rng: &mut Rng, n: usize) -> Vec<[f64; 3]> {
        const MARGIN: f64 = 1e-3;
        let mut pts = Vec::with_capacity(n);
        while pts.len() < n {
            let q = match self.shape {
                Shape::CarvedSphere { center, radius } => {
                    let q = [rng.unit(), rng.unit(), rng.unit()];
                    let d2: f64 = q.iter().zip(&center).map(|(a, c)| (a - c) * (a - c)).sum();
                    if d2.sqrt() <= radius + MARGIN {
                        continue;
                    }
                    q
                }
                Shape::Channel { height } => {
                    let t = |r: &mut Rng, len: f64| MARGIN + r.unit() * (len - 2.0 * MARGIN);
                    [t(rng, 1.0), t(rng, height), t(rng, height)]
                }
            };
            if q.iter().all(|&x| x > MARGIN && x < 1.0 - MARGIN) {
                pts.push(q);
            }
        }
        pts
    }
}

fn spec(desc: &str, base: u8, boundary: u8, order: u64) -> ScenarioSpec {
    ScenarioSpec {
        geometry: geometry_hash(desc),
        curve: Curve::Hilbert,
        base_level: base,
        boundary_level: boundary,
        order,
        scale: 1.0,
        mg_min_level: None,
    }
}
