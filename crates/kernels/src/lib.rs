#![warn(missing_docs)]
//! # grover-kernels
//!
//! The 11 benchmark applications of the Grover paper (Table I), rewritten
//! in the OpenCL C subset of [`grover_frontend`], each with dataset
//! generators, launch configurations (default work-group sizes, §V-B) and
//! scalar reference implementations.
//!
//! | ID | Application | Origin |
//! |----|-------------|--------|
//! | AMD-SS | StringSearch | AMD SDK |
//! | AMD-MT | MatrixTranspose (float4 tiles) | AMD SDK |
//! | NVD-MT | MatrixTranspose (staging) | NVIDIA SDK |
//! | AMD-RG | RecursiveGaussian | AMD SDK |
//! | AMD-MM | MatrixMultiplication | AMD SDK |
//! | NVD-MM-A/B/AB | oclMatrixMul, tile A/B/both de-localised | NVIDIA SDK |
//! | NVD-NBody | N-body simulation | NVIDIA SDK |
//! | PAB-ST | Stencil | Parboil |
//! | ROD-SC | StreamCluster | Rodinia |
//!
//! All kernels use `__local` memory in their original form; the paper's
//! experiment compares them against the version Grover produces.

pub mod apps;
pub mod harness;

pub use apps::{all_apps, app_by_id, extension_apps, App, Expected, Prepared, Scale};
pub use harness::{
    prepare_pair, run_prepared, run_prepared_with, validate_app, AppRun, KernelPair,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_test_cases() {
        // 11 rows of Table I (MM variants count as three, matching the
        // paper's 11-application list where oclMatrixMul appears as
        // NVD-MM-A/B/AB and AMD-MM separately).
        assert_eq!(all_apps().len(), 11);
    }

    #[test]
    fn ids_are_unique() {
        let apps = all_apps();
        let mut ids: Vec<&str> = apps.iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), apps.len());
    }

    #[test]
    fn lookup_by_id() {
        assert!(app_by_id("NVD-MT").is_some());
        assert!(app_by_id("NVD-MM-AB").is_some());
        assert!(app_by_id("XXX").is_none());
    }

    #[test]
    fn datasets_are_deterministic() {
        // Same scale => identical expected outputs (seeded RNG), so np
        // comparisons across versions see identical inputs.
        for app in all_apps() {
            let a = (app.prepare)(Scale::Test);
            let b = (app.prepare)(Scale::Test);
            match (&a.expected, &b.expected) {
                (Expected::F32(x), Expected::F32(y)) => assert_eq!(x, y, "{}", app.id),
                (Expected::I32(x), Expected::I32(y)) => assert_eq!(x, y, "{}", app.id),
                _ => panic!("{}: expected kinds differ", app.id),
            }
        }
    }

    #[test]
    fn launch_geometry_is_consistent() {
        for app in all_apps().iter().chain(&extension_apps()) {
            for scale in [Scale::Test, Scale::Small] {
                let p = (app.prepare)(scale);
                for d in 0..3 {
                    assert_eq!(
                        p.nd.global[d] % p.nd.local[d],
                        0,
                        "{} at {scale:?}: dim {d}",
                        app.id
                    );
                }
            }
        }
    }

    #[test]
    fn dataset_descriptions_mention_sizes() {
        for app in all_apps() {
            let d = (app.dataset)(Scale::Small);
            assert!(!d.is_empty(), "{}", app.id);
        }
    }

    #[test]
    fn extension_registry_is_separate() {
        let ext = extension_apps();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].id, "EXT-CONV");
        assert!(all_apps().iter().all(|a| a.id != "EXT-CONV"));
    }
}
