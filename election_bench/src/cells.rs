//! The three workloads: which graphs they build from the seed, which shades they
//! elect on each graph, and which solver × backend × codec variants every cell runs.

use anet_constructions::{GraphFamily, UClass};
use anet_election::engine::{
    AdviceSolver, Backend, Election, ElectionBuilder, MapSolver, MessageCodec,
};
use anet_election::tasks::Task;
use anet_graph::PortGraph;
use anet_views::ViewCodec;
use anet_workloads::{CirculantFamily, RandomRegularFamily, TorusFamily};

/// Path budget of every map solver and ψ computation (the map solver's default).
pub const MAX_PATHS: usize = 50_000;

/// Random-regular seed of the built-in sweep grids; seed 0 reproduces it.
const GRID_SEED: u64 = 0xA5EED;
/// Port-shuffle seed of the built-in sweep grids; seed 0 reproduces it.
const SHUFFLE_SEED: u64 = 41;

/// Draws of every seeded graph in `strong` and `wire`. How long a PPE search or
/// a CPPE view takes depends on the graph drawn, so one draw per size would make
/// a run's figures depend mostly on which graph the seed happened to pick.
/// `flood` draws once: at 10⁵ nodes its costs hardly vary between draws.
const DRAWS: u64 = 3;

/// One of the three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PE, PPE and CPPE through the map solver: the strong-shade search.
    Strong,
    /// Selection at ~10⁵ nodes on three backends plus the advice pair: the round loop.
    Flood,
    /// Selection and CPPE metered through every codec and a capped link: the wire.
    Wire,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Strong, Kind::Flood, Kind::Wire];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Strong => "strong",
            Kind::Flood => "flood",
            Kind::Wire => "wire",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How one election of a cell is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The map solver on an unmetered backend.
    Map(Backend),
    /// The map solver with every message serialised through a codec; a
    /// [`Backend::Capped`] backend streams at its per-edge cap.
    Metered(Backend, MessageCodec),
    /// The Theorem 2.2 advice pair shipping the tree or the dag codec.
    Advice(ViewCodec),
}

impl Variant {
    pub fn label(self) -> String {
        match self {
            Variant::Map(b) => format!("map/{}", b.label()),
            Variant::Metered(b, c) => format!("map/{}+{}", b.label(), c.label()),
            Variant::Advice(c) => format!("advice-{c}"),
        }
    }

    /// The configured election, built once and reused for every run.
    pub fn builder(self, task: Task) -> ElectionBuilder {
        let election = Election::task(task);
        match self {
            Variant::Map(b) => election.solver(MapSolver::new(MAX_PATHS)).backend(b),
            Variant::Metered(b, c) => election
                .solver(MapSolver::new(MAX_PATHS))
                .backend(b)
                .metered(c),
            Variant::Advice(ViewCodec::Tree) => election.solver(AdviceSolver::theorem_2_2()),
            Variant::Advice(ViewCodec::Dag) => election.solver(AdviceSolver::theorem_2_2_dag()),
        }
    }
}

/// How a graph of the workload is generated; generation is part of set-up.
#[derive(Debug, Clone, Copy)]
pub enum Recipe {
    RandomRegular { n: usize, seed: u64 },
    Torus { w: usize, h: usize, seed: u64 },
    Circulant { n: usize, seed: u64 },
    UTemplate { k: usize },
}

impl Recipe {
    pub fn name(self) -> String {
        match self {
            Recipe::RandomRegular { n, .. } => format!("rr3 n={n}"),
            Recipe::Torus { w, h, .. } => format!("torus {w}x{h}"),
            Recipe::Circulant { n, .. } => format!("circulant n={n}"),
            Recipe::UTemplate { k } => format!("U_{{4,{k}}}"),
        }
    }

    pub fn generate(self) -> PortGraph {
        match self {
            Recipe::RandomRegular { n, seed } => {
                RandomRegularFamily::new(3, vec![n], seed).generate(n)
            }
            Recipe::Torus { w, h, seed } => {
                first_instance(&TorusFamily::new(vec![(w, h)]).shuffled(seed))
            }
            Recipe::Circulant { n, seed } => {
                first_instance(&CirculantFamily::powers_of_two(vec![n], 3).shuffled(seed))
            }
            Recipe::UTemplate { k } => {
                UClass::new(4, k)
                    .and_then(|class| class.template())
                    .expect("U_{4,k} template parameters are valid")
                    .labeled
                    .graph
            }
        }
    }
}

fn first_instance(family: &dyn GraphFamily) -> PortGraph {
    family
        .instances(1)
        .pop()
        .expect("a family with one size yields one instance")
        .graph
}

/// A workload's plan: graphs, the shades elected on each, and the variants every
/// (graph, shade) cell runs, in the order the closed loop runs them.
pub struct Plan {
    pub kind: Kind,
    /// Graph names (a seeded graph's name ends in its draw, `#i`) and recipes.
    pub graphs: Vec<(String, Recipe)>,
    /// `(graph index, task)` pairs.
    pub cells: Vec<(usize, Task)>,
    pub variants: Vec<Variant>,
}

impl Plan {
    /// The workload at full size (`tiny = false`) or at self-test size. `seed`
    /// derives every random-regular and port-shuffle seed: draw `i` mixes in
    /// `seed · DRAWS + i`, so seed 0's first draw is the sweep grid's `0xA5EED`
    /// and `41`.
    pub fn new(kind: Kind, seed: u64, tiny: bool) -> Plan {
        let draws = if kind == Kind::Flood { 1 } else { DRAWS };
        let mix = |base: u64, i: u64| {
            base.wrapping_add(
                seed.wrapping_mul(DRAWS)
                    .wrapping_add(i)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        };
        let rr = |n| {
            move |i| Recipe::RandomRegular {
                n,
                seed: mix(GRID_SEED, i),
            }
        };
        let torus = |w, h| {
            move |i| Recipe::Torus {
                w,
                h,
                seed: mix(SHUFFLE_SEED, i),
            }
        };
        let circ = |n| {
            move |i| Recipe::Circulant {
                n,
                seed: mix(SHUFFLE_SEED, i),
            }
        };
        use Task::{CompletePortPathElection as Cppe, PortElection as Pe, PortPathElection as Ppe};
        let strong = [Pe, Ppe, Cppe];
        let mut plan = Plan {
            kind,
            graphs: Vec::new(),
            cells: Vec::new(),
            variants: Vec::new(),
        };
        match kind {
            Kind::Strong => {
                let (rrs, tori, small_torus, circs) = if tiny {
                    (vec![64, 128], vec![(5, 6)], (4, 5), vec![64, 128])
                } else {
                    (
                        vec![1024, 2048, 4096],
                        vec![(32, 33), (64, 65)],
                        (11, 12),
                        vec![1024, 4096],
                    )
                };
                for n in rrs {
                    plan.add(draws, rr(n), &strong);
                }
                for (w, h) in tori {
                    plan.add(draws, torus(w, h), &strong);
                }
                // The standard grid's known PathBudgetExceeded cell.
                plan.add(draws, torus(small_torus.0, small_torus.1), &[Ppe]);
                plan.add(draws, circ(circs[0]), &strong);
                plan.add(draws, circ(circs[1]), &[Pe, Cppe]);
                plan.variants = vec![Variant::Map(Backend::Sequential)];
            }
            Kind::Flood => {
                let (dims, n, k) = if tiny {
                    ((20, 21), 2000, 1)
                } else {
                    ((316, 317), 100_000, 2)
                };
                plan.add(draws, torus(dims.0, dims.1), &[Task::Selection]);
                plan.add(draws, rr(n), &[Task::Selection]);
                plan.add(1, |_| Recipe::UTemplate { k }, &[Task::Selection]);
                plan.variants = vec![
                    Variant::Map(Backend::Sequential),
                    Variant::Map(Backend::Batching),
                    Variant::Map(Backend::parallel(2)),
                    Variant::Advice(ViewCodec::Tree),
                    Variant::Advice(ViewCodec::Dag),
                ];
            }
            Kind::Wire => {
                let (n, dims, k) = if tiny {
                    (64, (6, 7), 1)
                } else {
                    (1024, (32, 33), 2)
                };
                plan.add(draws, rr(n), &[Task::Selection, Cppe]);
                plan.add(draws, torus(dims.0, dims.1), &[Task::Selection, Cppe]);
                plan.add(draws, circ(n), &[Task::Selection, Cppe]);
                plan.add(1, |_| Recipe::UTemplate { k }, &[Task::Selection]);
                plan.variants = MessageCodec::ALL
                    .into_iter()
                    .map(|c| Variant::Metered(Backend::Sequential, c))
                    .chain([Variant::Metered(Backend::capped(64), MessageCodec::Delta)])
                    .collect();
            }
        }
        plan
    }

    /// Add `draws` draws of a graph (the unseeded U template: one, unnumbered)
    /// and elect each of `tasks` on every draw.
    fn add(&mut self, draws: u64, recipe: impl Fn(u64) -> Recipe, tasks: &[Task]) {
        for i in 0..draws {
            let r = recipe(i);
            let name = match r {
                Recipe::UTemplate { .. } => r.name(),
                _ => format!("{} #{i}", r.name()),
            };
            self.graphs.push((name, r));
            let g = self.graphs.len() - 1;
            self.cells.extend(tasks.iter().map(|&t| (g, t)));
        }
    }

    pub fn cell_name(&self, cell: usize) -> String {
        let (g, task) = self.cells[cell];
        format!("{} {}", self.graphs[g].0, task.abbreviation())
    }

    pub fn generate(&self) -> Vec<PortGraph> {
        self.graphs.iter().map(|(_, r)| r.generate()).collect()
    }

    /// Cells expected to end in a typed failure, pinned for the two seeds whose
    /// outcomes were recorded at full size; `None` for any other seed, where typed
    /// failures are accepted, listed and counted.
    pub fn known_failures(&self, seed: u64, tiny: bool) -> Option<Vec<&'static str>> {
        if tiny {
            return None;
        }
        match (self.kind, seed) {
            (Kind::Strong, 0) => Some(vec![
                "torus 11x12 #0 PPE",
                "torus 11x12 #2 PPE",
                "circulant n=1024 #0 PPE",
                "circulant n=1024 #1 PPE",
                "circulant n=1024 #2 PPE",
            ]),
            (Kind::Strong, 1) => Some(vec![
                "torus 11x12 #0 PPE",
                "torus 11x12 #1 PPE",
                "circulant n=1024 #0 PPE",
                "circulant n=1024 #1 PPE",
                "circulant n=1024 #2 PPE",
            ]),
            (_, 0 | 1) => Some(vec![]),
            _ => None,
        }
    }
}
