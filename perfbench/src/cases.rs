//! What the workloads run: the seeded generator, the tune cases and serve
//! keys, and the committed table of expected decisions every output is
//! checked against.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use grover_kernels::{all_apps, App, Scale};

/// The devices of the paper's Fig. 10 / Table IV sweep: one cache-only
/// CPU, the many-core MIC, and a GPU.
pub const DEVICES: [&str; 3] = ["SNB", "MIC", "Fermi"];

/// Apps tuned at `Scale::Small` by `tune-small`. The matrix-multiply
/// family (≈36 s per tune) and NBody (≈4 s per tune) are left out so a
/// sweep fits in a few seconds.
pub const SMALL_APPS: [&str; 6] = ["AMD-SS", "AMD-MT", "NVD-MT", "AMD-RG", "PAB-ST", "ROD-SC"];

/// SplitMix64: every schedule is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_9a0e_5bec)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The paper's eleven applications, built once.
fn apps() -> &'static [App] {
    static APPS: OnceLock<Vec<App>> = OnceLock::new();
    APPS.get_or_init(all_apps)
}

/// One (application, device, scale) tuning problem.
#[derive(Clone, Copy)]
pub struct Case {
    pub app: &'static App,
    pub device: &'static str,
    pub scale: Scale,
}

impl Case {
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.app.id, self.device, scale_name(self.scale))
    }
}

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

fn cross(apps: Vec<&'static App>, scale: Scale) -> Vec<Case> {
    apps.into_iter()
        .flat_map(|app| {
            DEVICES
                .iter()
                .map(move |&device| Case { app, device, scale })
        })
        .collect()
}

/// The in-process tune cases: `tune-small`'s trimmed set, or all eleven
/// paper apps at `Scale::Test`.
pub fn tune_cases(scale: Scale) -> Vec<Case> {
    let apps = apps()
        .iter()
        .filter(|a| scale != Scale::Small || SMALL_APPS.contains(&a.id))
        .collect();
    cross(apps, scale)
}

/// The serve keys behind a set of apps: one per distinct source. Serve
/// does not apply `App::disable`, so the three NVD-MM variants collapse
/// to one key; it is labelled NVD-MM-AB, whose transform (every buffer
/// removed) is the one serve performs.
pub fn serve_keys(scale: Scale) -> Vec<Case> {
    let mut keyed: Vec<&'static App> = Vec::new();
    for app in apps() {
        if scale == Scale::Small && !SMALL_APPS.contains(&app.id) {
            continue;
        }
        match keyed.iter_mut().find(|a| a.source == app.source) {
            Some(seen) => *seen = app,
            None => keyed.push(app),
        }
    }
    cross(keyed, scale)
}

/// Which code path produced a decision: the in-process tuner over
/// `prepare_pair` kernels, or the HTTP service.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Path {
    InProcess,
    Serve,
}

impl Path {
    fn tag(self) -> &'static str {
        match self {
            Path::InProcess => "inproc",
            Path::Serve => "serve",
        }
    }

    fn parse(s: &str) -> Option<Path> {
        match s {
            "inproc" => Some(Path::InProcess),
            "serve" => Some(Path::Serve),
            _ => None,
        }
    }
}

/// The parts of a decision that must repeat exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub choice: String,
    pub sequence: String,
    /// Fallback kind, `none` when the race decided.
    pub fallback: String,
    /// `(cycles_with, cycles_without)`; checked on CPU devices only,
    /// because the GPU model's cycle counts are not reproducible (its
    /// work-group retirement iterates a `HashMap`).
    pub cycles: Option<(u64, u64)>,
}

impl Outcome {
    pub fn new(
        device: &str,
        choice: &str,
        sequence: &str,
        fallback: Option<&str>,
        cycles: (u64, u64),
    ) -> Outcome {
        Outcome {
            choice: choice.to_string(),
            sequence: sequence.to_string(),
            fallback: fallback.unwrap_or("none").to_string(),
            cycles: is_cpu(device).then_some(cycles),
        }
    }
}

pub fn is_cpu(device: &str) -> bool {
    grover_devsim::CPU_DEVICES.contains(&device)
}

type Key = (Path, String, String, String);

/// `expected.tsv`: one row per (path, app, device, scale).
#[derive(Clone, Debug, Default)]
pub struct Expected {
    rows: BTreeMap<Key, Outcome>,
}

/// The committed table, generated with `--bless` at the commit that
/// defined the benchmark.
const EXPECTED_TSV: &str = include_str!("../expected.tsv");

const HEADER: &str =
    "path\tapp\tdevice\tscale\tchoice\tsequence\tfallback\tcycles_with\tcycles_without";

fn key(path: Path, case: &Case) -> Key {
    (
        path,
        case.app.id.to_string(),
        case.device.to_string(),
        scale_name(case.scale).to_string(),
    )
}

impl Expected {
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') || line == HEADER {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [path, app, device, scale, choice, sequence, fallback, cw, cwo] = f[..] else {
                return Err(format!("expected.tsv line {}: want 9 fields", n + 1));
            };
            let path =
                Path::parse(path).ok_or_else(|| format!("line {}: bad path `{path}`", n + 1))?;
            let cycles = match (cw, cwo) {
                ("-", "-") => None,
                _ => Some((
                    cw.parse().map_err(|_| format!("line {}: cycles", n + 1))?,
                    cwo.parse().map_err(|_| format!("line {}: cycles", n + 1))?,
                )),
            };
            let outcome = Outcome {
                choice: choice.to_string(),
                sequence: sequence.to_string(),
                fallback: fallback.to_string(),
                cycles,
            };
            let k = (path, app.to_string(), device.to_string(), scale.to_string());
            rows.insert(k, outcome);
        }
        Ok(Expected { rows })
    }

    pub fn committed() -> Expected {
        Expected::parse(EXPECTED_TSV).expect("the committed expected.tsv parses")
    }

    pub fn insert(&mut self, path: Path, case: &Case, outcome: Outcome) {
        self.rows.insert(key(path, case), outcome);
    }

    /// `Err` names the first field that differs from the committed row.
    pub fn check(&self, path: Path, case: &Case, got: &Outcome) -> Result<(), String> {
        let want = self.rows.get(&key(path, case)).ok_or_else(|| {
            format!(
                "{} {}: no expected.tsv row (run --bless)",
                path.tag(),
                case.label()
            )
        })?;
        if want == got {
            Ok(())
        } else {
            Err(format!(
                "{} {}: expected {want:?}, got {got:?}",
                path.tag(),
                case.label()
            ))
        }
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "# Expected tuning decisions, checked by every perfbench run.\n\
             # Regenerate with `perfbench --bless` only when a change is meant to alter decisions.\n\
             {HEADER}\n"
        );
        for ((path, app, device, scale), o) in &self.rows {
            let (cw, cwo) = match o.cycles {
                Some((a, b)) => (a.to_string(), b.to_string()),
                None => ("-".to_string(), "-".to_string()),
            };
            out.push_str(&format!(
                "{}\t{app}\t{device}\t{scale}\t{}\t{}\t{}\t{cw}\t{cwo}\n",
                path.tag(),
                o.choice,
                o.sequence,
                o.fallback
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let order = |seed| {
            let mut cases: Vec<String> = tune_cases(Scale::Test).iter().map(Case::label).collect();
            Rng::new(seed).shuffle(&mut cases);
            cases.join(",")
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
    }

    #[test]
    fn case_sets() {
        assert_eq!(tune_cases(Scale::Small).len(), 18);
        assert_eq!(tune_cases(Scale::Test).len(), 33);
        let keys = serve_keys(Scale::Test);
        assert_eq!(keys.len(), 27);
        assert!(keys.iter().any(|c| c.app.id == "NVD-MM-AB"));
        assert!(!keys.iter().any(|c| c.app.id == "NVD-MM-A"));
        assert_eq!(serve_keys(Scale::Small).len(), 18);
    }

    #[test]
    fn committed_table_covers_every_case() {
        let table = Expected::committed();
        let inproc = tune_cases(Scale::Small)
            .into_iter()
            .chain(tune_cases(Scale::Test));
        for case in inproc {
            assert!(
                table.rows.contains_key(&key(Path::InProcess, &case)),
                "{}",
                case.label()
            );
        }
        let served = serve_keys(Scale::Small)
            .into_iter()
            .chain(serve_keys(Scale::Test));
        for case in served {
            assert!(
                table.rows.contains_key(&key(Path::Serve, &case)),
                "{}",
                case.label()
            );
        }
    }

    #[test]
    fn table_round_trips_and_a_wrong_row_fails_the_check() {
        let table = Expected::committed();
        let again = Expected::parse(&table.render()).unwrap();
        assert_eq!(again.rows, table.rows);

        let case = tune_cases(Scale::Test).remove(0);
        let right = table.rows[&key(Path::InProcess, &case)].clone();
        assert!(table.check(Path::InProcess, &case, &right).is_ok());

        // Flip the committed choice: the same observed outcome now fails.
        let mut wrong = table.clone();
        let mut row = right.clone();
        row.choice = if row.choice == "similar" {
            "with_local_memory".into()
        } else {
            "similar".into()
        };
        wrong.insert(Path::InProcess, &case, row);
        assert!(wrong.check(Path::InProcess, &case, &right).is_err());
    }
}
