//! Synthetic evolving-graph generators shaped like the paper's three
//! evaluation datasets (§5, "Datasets").
//!
//! The real datasets (WikiTalk, Google Books NGrams, LDBC SNB) are not
//! shipped with this repository; these generators reproduce the *structural
//! character* each experiment depends on — growth-only vs. volatile
//! entities, attribute stability, edge churn (evolution rate), and the
//! number of snapshots — at configurable scale. See `DESIGN.md` §1 for the
//! substitution argument, and [`crate::stats`] for measuring that generated
//! graphs hit the intended evolution rates.

use rand::prelude::*;
use rand::rngs::StdRng;
use tgraph_core::graph::{EdgeRecord, TGraph, VertexRecord};
use tgraph_core::props::Props;
use tgraph_core::time::Interval;

/// Generator for a WikiTalk-shaped messaging graph.
///
/// Character (matching §5): very sparse; vertices are *growth-only* (once
/// added they persist to the end of the graph and their attributes never
/// change — one tuple per vertex); edges are short-lived messaging events;
/// consecutive snapshots overlap little (paper's evolution rate: 14.4).
#[derive(Clone, Debug)]
pub struct WikiTalk {
    /// Number of user vertices.
    pub vertices: usize,
    /// Number of monthly snapshots (paper: 179).
    pub months: u32,
    /// Total edges ≈ `edges_per_vertex × vertices` (paper ratio ≈ 3.7).
    pub edges_per_vertex: f64,
    /// Fraction of a month's edges that survive into the next month,
    /// controlling the evolution rate (paper ≈ 0.144).
    pub edge_survival: f64,
    /// Number of distinct `editCount` values (paper ≈ 15 000).
    pub edit_count_values: u32,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Default for WikiTalk {
    fn default() -> Self {
        WikiTalk {
            vertices: 20_000,
            months: 60,
            edges_per_vertex: 3.7,
            edge_survival: 0.144,
            edit_count_values: 15_000,
            seed: 0x1111,
        }
    }
}

impl WikiTalk {
    /// Generates the graph. Time points are months `0..months`.
    pub fn generate(&self) -> TGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let months = self.months.max(1) as i64;
        let lifespan = Interval::new(0, months);

        // Growth-only vertices: arrival month ~ uniform; persist to the end.
        let mut vertices = Vec::with_capacity(self.vertices);
        let mut arrival = vec![0i64; self.vertices];
        for (vid, slot) in arrival.iter_mut().enumerate() {
            let start = rng.gen_range(0..months);
            *slot = start;
            let props = Props::typed("person")
                .with("name", format!("user{vid}"))
                .with("editCount", rng.gen_range(0..self.edit_count_values) as i64);
            vertices.push(VertexRecord::new(
                vid as u64,
                Interval::new(start, months),
                props,
            ));
        }

        // Short-lived message edges. A fraction of each month's edges
        // survives into the next month — a surviving edge keeps its identity
        // and extends its validity interval, which is what makes consecutive
        // snapshots overlap (the evolution-rate knob).
        let total_edges = (self.vertices as f64 * self.edges_per_vertex) as usize;
        let per_month = (total_edges / months as usize).max(1);
        struct Active {
            eid: u64,
            a: u64,
            b: u64,
            since: i64,
        }
        let mut active: Vec<Active> = Vec::new();
        let mut edges = Vec::with_capacity(total_edges);
        let mut next_eid = 0u64;
        for month in 0..months {
            let alive: Vec<u64> = (0..self.vertices as u64)
                .filter(|v| arrival[*v as usize] <= month)
                .collect();
            if alive.len() < 2 {
                continue;
            }
            // Retire non-survivors from the previous month.
            let mut kept = Vec::with_capacity(active.len());
            for act in active.drain(..) {
                if rng.gen_bool(self.edge_survival) {
                    kept.push(act);
                } else {
                    edges.push(EdgeRecord::new(
                        act.eid,
                        act.a,
                        act.b,
                        Interval::new(act.since, month),
                        Props::typed("message"),
                    ));
                }
            }
            active = kept;
            // Top up with fresh message pairs among alive users.
            while active.len() < per_month {
                let a = alive[rng.gen_range(0..alive.len())];
                let b = alive[rng.gen_range(0..alive.len())];
                if a == b {
                    continue;
                }
                active.push(Active {
                    eid: next_eid,
                    a,
                    b,
                    since: month,
                });
                next_eid += 1;
            }
        }
        for act in active {
            edges.push(EdgeRecord::new(
                act.eid,
                act.a,
                act.b,
                Interval::new(act.since, months),
                Props::typed("message"),
            ));
        }
        TGraph {
            lifespan,
            vertices,
            edges,
        }
    }
}

/// Generator for an NGrams-shaped word co-occurrence graph.
///
/// Character (matching §5): vertices (words) persist for the whole lifespan;
/// edges appear and disappear per yearly snapshot with moderate overlap
/// (paper's evolution rate ≈ 17–18); the number of edges is linear in the
/// number of vertices.
#[derive(Clone, Debug)]
pub struct NGrams {
    /// Number of word vertices.
    pub vertices: usize,
    /// Number of yearly snapshots (paper: 287 / 328).
    pub years: u32,
    /// Concurrent edges per snapshot ≈ `edges_per_vertex × vertices`.
    pub edges_per_vertex: f64,
    /// Fraction of a year's edges surviving to the next year (paper ≈ 0.17).
    pub edge_survival: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NGrams {
    fn default() -> Self {
        NGrams {
            vertices: 10_000,
            years: 100,
            // Concurrent (within-snapshot) edges are a fraction of the
            // vertex count, as in the real dataset: 48M persistent word
            // vertices versus ~4M concurrent co-occurrence edges per year
            // (1.32B total / 328 snapshots). The per-snapshot dominance of
            // vertices is what makes RG's replication so costly (§5.1).
            edges_per_vertex: 0.5,
            edge_survival: 0.17,
            seed: 0x9ea5,
        }
    }
}

impl NGrams {
    /// Generates the graph. Time points are years `0..years`.
    pub fn generate(&self) -> TGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let years = self.years.max(1) as i64;
        let lifespan = Interval::new(0, years);
        let n = self.vertices.max(2);

        // Persistent word vertices spanning the whole lifespan.
        let vertices: Vec<VertexRecord> = (0..n)
            .map(|vid| {
                VertexRecord::new(
                    vid as u64,
                    lifespan,
                    Props::typed("word").with("word", format!("w{vid}")),
                )
            })
            .collect();

        // Volatile co-occurrence edges: each year keeps `edge_survival` of
        // the previous year's pairs and replaces the rest. A surviving pair
        // keeps its edge id, extending the same edge's validity — which keeps
        // the graph coalesced as one longer interval.
        let per_year = ((n as f64) * self.edges_per_vertex) as usize;
        #[derive(Clone)]
        struct Active {
            eid: u64,
            a: u64,
            b: u64,
            since: i64,
        }
        let mut active: Vec<Active> = Vec::new();
        let mut edges: Vec<EdgeRecord> = Vec::new();
        let mut next_eid = 0u64;
        let emit = |act: &Active, end: i64, edges: &mut Vec<EdgeRecord>| {
            edges.push(EdgeRecord::new(
                act.eid,
                act.a,
                act.b,
                Interval::new(act.since, end),
                Props::typed("cooccur"),
            ));
        };
        for year in 0..years {
            // Retire non-survivors.
            let mut kept = Vec::with_capacity(active.len());
            for act in active.drain(..) {
                if rng.gen_bool(self.edge_survival) {
                    kept.push(act);
                } else {
                    emit(&act, year, &mut edges);
                }
            }
            active = kept;
            // Top up with fresh pairs.
            while active.len() < per_year {
                let a = rng.gen_range(0..n as u64);
                let b = rng.gen_range(0..n as u64);
                if a == b {
                    continue;
                }
                active.push(Active {
                    eid: next_eid,
                    a,
                    b,
                    since: year,
                });
                next_eid += 1;
            }
        }
        for act in active {
            emit(&act, years, &mut edges);
        }
        TGraph {
            lifespan,
            vertices,
            edges,
        }
    }
}

/// Generator for an LDBC-SNB-shaped friendship network.
///
/// Character (matching §5): strictly growth-only — every person and
/// friendship is added once and never removed, which drives the evolution
/// rate to ≈ 90; persons carry a `firstName` drawn from a fixed-cardinality
/// pool (5 300 distinct values in SNB:1000); edges carry no attributes.
#[derive(Clone, Debug)]
pub struct Snb {
    /// Number of person vertices (scale factor analogue).
    pub persons: usize,
    /// Number of monthly snapshots (paper: 36).
    pub months: u32,
    /// Friendship edges per person (SNB:1000 ratio ≈ 61; smaller factors
    /// have ≈ 29–54).
    pub edges_per_person: f64,
    /// Number of distinct `firstName` values (paper: 5 300).
    pub first_names: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Snb {
    fn default() -> Self {
        Snb {
            persons: 10_000,
            months: 36,
            edges_per_person: 30.0,
            first_names: 5_300,
            seed: 0x5b,
        }
    }
}

impl Snb {
    /// Generates the graph. Time points are months `0..months`.
    pub fn generate(&self) -> TGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let months = self.months.max(1) as i64;
        let lifespan = Interval::new(0, months);
        let n = self.persons.max(2);

        // Persons arrive uniformly over the lifespan and persist (growth-only).
        let mut vertices = Vec::with_capacity(n);
        let mut arrival = vec![0i64; n];
        for (vid, slot) in arrival.iter_mut().enumerate() {
            // Guarantee a seed population in month 0.
            let start = if vid < n / 10 {
                0
            } else {
                rng.gen_range(0..months)
            };
            *slot = start;
            let props = Props::typed("person")
                .with(
                    "firstName",
                    format!("name{}", rng.gen_range(0..self.first_names)),
                )
                .with("id", vid as i64);
            vertices.push(VertexRecord::new(
                vid as u64,
                Interval::new(start, months),
                props,
            ));
        }

        // Friendships arrive after both endpoints exist and persist
        // (growth-only). Preferential attachment approximated by sampling
        // endpoints from previously used endpoints half of the time.
        let total_edges = (n as f64 * self.edges_per_person / 2.0) as usize;
        let mut edges = Vec::with_capacity(total_edges);
        let mut hubs: Vec<u64> = Vec::new();
        for eid in 0..total_edges {
            let a = if !hubs.is_empty() && rng.gen_bool(0.5) {
                hubs[rng.gen_range(0..hubs.len())]
            } else {
                rng.gen_range(0..n as u64)
            };
            let mut b = rng.gen_range(0..n as u64);
            if b == a {
                b = (b + 1) % n as u64;
            }
            let earliest = arrival[a as usize].max(arrival[b as usize]);
            let start = rng.gen_range(earliest..months);
            edges.push(EdgeRecord::new(
                eid as u64,
                a,
                b,
                Interval::new(start, months),
                Props::typed("knows"),
            ));
            hubs.push(a);
            hubs.push(b);
            if hubs.len() > 4096 {
                hubs.drain(..2048);
            }
        }
        TGraph {
            lifespan,
            vertices,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph_core::validate::validate;

    #[test]
    fn wikitalk_is_valid_and_growth_only_vertices() {
        let g = WikiTalk {
            vertices: 500,
            months: 24,
            ..WikiTalk::default()
        }
        .generate();
        assert!(validate(&g).is_empty());
        assert_eq!(
            g.vertex_tuple_count(),
            500,
            "one tuple per vertex (no attr changes)"
        );
        // Every vertex persists to the end of the lifespan.
        assert!(g.vertices.iter().all(|v| v.interval.end == g.lifespan.end));
        assert!(g.edge_tuple_count() > 500);
    }

    #[test]
    fn wikitalk_edges_are_short_lived() {
        let g = WikiTalk {
            vertices: 500,
            months: 24,
            ..WikiTalk::default()
        }
        .generate();
        let one_month = g.edges.iter().filter(|e| e.interval.len() == 1).count();
        // With survival ≈ 0.144, the vast majority of edges live one month.
        assert!(one_month as f64 > 0.7 * g.edges.len() as f64);
        assert!(g.edges.iter().any(|e| e.interval.len() > 1));
    }

    #[test]
    fn ngrams_vertices_persist_edges_churn() {
        let g = NGrams {
            vertices: 300,
            years: 20,
            ..NGrams::default()
        }
        .generate();
        assert!(validate(&g).is_empty());
        assert!(g.vertices.iter().all(|v| v.interval == g.lifespan));
        // Some edges live longer than one year (survivors extend intervals).
        assert!(g.edges.iter().any(|e| e.interval.len() > 1));
        assert!(g.edges.iter().any(|e| e.interval.len() == 1));
    }

    #[test]
    fn snb_is_growth_only() {
        let g = Snb {
            persons: 400,
            ..Snb::default()
        }
        .generate();
        assert!(validate(&g).is_empty());
        assert!(g.vertices.iter().all(|v| v.interval.end == g.lifespan.end));
        assert!(g.edges.iter().all(|e| e.interval.end == g.lifespan.end));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WikiTalk {
            vertices: 200,
            months: 12,
            ..WikiTalk::default()
        }
        .generate();
        let b = WikiTalk {
            vertices: 200,
            months: 12,
            ..WikiTalk::default()
        }
        .generate();
        assert_eq!(a.vertices, b.vertices);
        assert_eq!(a.edges, b.edges);
        let c = WikiTalk {
            vertices: 200,
            months: 12,
            seed: 7,
            ..WikiTalk::default()
        }
        .generate();
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn snb_first_name_cardinality_bound() {
        let g = Snb {
            persons: 2_000,
            first_names: 10,
            ..Snb::default()
        }
        .generate();
        let mut names: Vec<&str> = g
            .vertices
            .iter()
            .filter_map(|v| v.props.get("firstName").and_then(|x| x.as_str()))
            .collect();
        names.sort();
        names.dedup();
        assert!(names.len() <= 10);
    }
}
