//! Seeded workload inputs: the designs each workload sends, built only
//! from `--seed`, so the same seed always gives the same documents.

use parchmint::Device;
use parchmint_suite::{generate_fpva, BenchmarkClass, FpvaConfig};
use serde_json::Value;

/// SplitMix64: a tiny, well-mixed generator for input seeds and
/// request orders.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A seed for item `index` of a stream derived from `seed`.
pub fn derive(seed: u64, index: u64) -> u64 {
    SplitMix64::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Side of the never-seen FPVA grids `fpva-cold` sends (3n²−2n+2 = 343
/// components at n = 11).
pub const COLD_GRID: usize = 11;

/// Side of the FPVA documents `fpva-warm` resubmits (9978 components,
/// about 3.4 MB of compact JSON each, at n = 58).
pub const WARM_GRID: usize = 58;

/// How many large documents `fpva-warm` cycles through.
pub const WARM_DOCS: usize = 4;

/// Cold design `index` of the stream for `seed`: an 11×11 grid whose
/// channel widths come from the derived seed, so no two indices share a
/// cache key.
pub fn cold_design(seed: u64, index: u64) -> Device {
    fpva(
        &format!("fpva_cold_{index}"),
        COLD_GRID,
        derive(seed, index),
    )
}

/// The 11×11 grid the traced replay of `fpva-warm` routes, since that
/// workload's own documents are never routed.
pub fn probe_design(seed: u64) -> Device {
    fpva("fpva_probe", COLD_GRID, derive(seed, 1 << 40))
}

/// The `fpva-warm` document set for `seed`.
pub fn warm_designs(seed: u64) -> Vec<Device> {
    (0..WARM_DOCS as u64)
        .map(|j| {
            fpva(
                &format!("fpva_warm_{j}"),
                WARM_GRID,
                derive(seed, 1 << 32 | j),
            )
        })
        .collect()
}

/// The `small-warm` design set: the eleven assay designs plus
/// `planar_synthetic_1..4`. Fixed; the seed only orders requests.
pub fn small_designs() -> Vec<Device> {
    parchmint_suite::suite()
        .into_iter()
        .filter(|b| {
            b.class() == BenchmarkClass::Assay
                || matches!(
                    b.name(),
                    "planar_synthetic_1"
                        | "planar_synthetic_2"
                        | "planar_synthetic_3"
                        | "planar_synthetic_4"
                )
        })
        .map(|b| b.device())
        .collect()
}

fn fpva(name: &str, side: usize, seed: u64) -> Device {
    generate_fpva(
        name,
        &FpvaConfig {
            rows: side,
            cols: side,
            seed,
        },
    )
}

/// How a document travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Inline ParchMint JSON (`design`).
    Json,
    /// MINT source text (`mint`).
    Mint,
}

/// One design document as the benchmark submits it.
pub struct Doc {
    /// The design's name (what the daemon reports in `done`).
    pub design: String,
    /// How the document is encoded.
    pub encoding: Encoding,
    /// The document text: compact ParchMint JSON or MINT source.
    pub text: String,
    /// The submit fields after `id`, ready to splice into a request:
    /// the design source plus the stage selection.
    pub fields: String,
}

impl Doc {
    /// `device` as a document in `encoding`, submitted with `stages`
    /// (`None` runs the daemon's full matrix).
    pub fn new(device: &Device, encoding: Encoding, stages: Option<&[&str]>) -> Doc {
        let text = match encoding {
            Encoding::Json => device.to_json().expect("generated designs serialize"),
            Encoding::Mint => parchmint_mint::print(&parchmint_mint::device_to_mint(device)),
        };
        let mut fields = match encoding {
            Encoding::Json => format!("\"design\":{text}"),
            Encoding::Mint => format!(
                "\"mint\":{}",
                serde_json::to_string(&Value::from(text.as_str())).expect("strings serialize")
            ),
        };
        if let Some(stages) = stages {
            let list: Vec<Value> = stages.iter().map(|s| Value::from(*s)).collect();
            fields.push_str(",\"stages\":");
            fields.push_str(&serde_json::to_string(&Value::Array(list)).expect("serializes"));
        }
        Doc {
            design: device.name.clone(),
            encoding,
            text,
            fields,
        }
    }

    /// The line-protocol request for this document under `id`.
    pub fn tcp_line(&self, id: u64) -> String {
        format!("{{\"op\":\"submit\",\"id\":{id},{}}}\n", self.fields)
    }

    /// The HTTP `POST /v1/submit` body for this document under `id`.
    pub fn http_body(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}}}", self.fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs() {
        assert_eq!(derive(7, 3), derive(7, 3));
        assert_ne!(derive(7, 3), derive(8, 3));
        assert_ne!(derive(7, 3), derive(7, 4));
        let a = cold_design(11, 0).to_json().unwrap();
        assert_eq!(a, cold_design(11, 0).to_json().unwrap());
        assert_ne!(a, cold_design(11, 1).to_json().unwrap());
        let mut x: Vec<u32> = (0..30).collect();
        let mut y = x.clone();
        SplitMix64::new(5).shuffle(&mut x);
        SplitMix64::new(5).shuffle(&mut y);
        assert_eq!(x, y);
        assert_ne!(x, (0..30).collect::<Vec<u32>>());
    }

    #[test]
    fn small_set_is_fifteen_designs() {
        assert_eq!(small_designs().len(), 15);
    }

    #[test]
    fn requests_are_valid_submits() {
        let device = cold_design(1, 0);
        let doc = Doc::new(&device, Encoding::Mint, Some(&["validate", "flow"]));
        let request = parchmint_serve::parse_request(doc.tcp_line(9).trim_end()).unwrap();
        let parchmint_serve::Request::Submit(submit) = request else {
            panic!("not a submit");
        };
        assert_eq!(submit.id, Value::from(9));
        assert_eq!(submit.stages.as_deref().map(<[String]>::len), Some(2));
        assert!(parchmint_serve::parse_submit_body(&doc.http_body(3)).is_ok());
    }
}
