//! Pre-calibrated experiment scenarios: the paper's two test cases
//! (LeNet-5 / Cifar10, VGG-16 / Cifar100) at simulation scale, plus a quick
//! MLP scenario for tests and examples.
//!
//! A [`Scenario`] bundles the architecture, the synthetic dataset stand-in,
//! the two-stage training plan and the lifetime-simulation parameters with
//! an *accelerated* aging magnitude. The acceleration is a deliberate,
//! documented substitution (see `DESIGN.md` §5): real endurance is 10⁶–10¹⁰
//! cycles, which no behavioural simulation can step through one pulse at a
//! time; scaling `A_f` compresses the whole lifetime trajectory into tens of
//! maintenance sessions while preserving every *relative* effect the paper
//! measures (strategy ordering, conv-vs-FC asymmetry, the tuning-iteration
//! blow-up at end of life).

use memaging_dataset::{Dataset, SyntheticSpec};
use memaging_device::ArrheniusAging;
use memaging_lifetime::Strategy;
use memaging_nn::TrainConfig;

use crate::error::FrameworkError;
use crate::framework::{Framework, StrategyOutcome, TrainingPlan};
use crate::model::ModelKind;

/// Which synthetic generator a scenario draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataGenerator {
    /// Smooth gaussian-prototype classes ([`Dataset::gaussian_blobs`]).
    Blobs,
    /// Parametric geometric shapes ([`Dataset::shapes`]).
    Shapes,
}

/// A fully-specified, reproducible experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name, e.g. `"LeNet-5 (scaled) / synthetic-10"`.
    pub name: String,
    /// The synthetic dataset specification.
    pub data_spec: SyntheticSpec,
    /// The generator family.
    pub generator: DataGenerator,
    /// Fraction of the dataset used as the tuning/calibration subset.
    pub calib_fraction: f64,
    /// The framework (model, device, aging, training, lifetime).
    pub framework: Framework,
    /// Master seed for model init and training shuffles.
    pub seed: u64,
}

impl Scenario {
    /// The accelerated aging model shared by the scenarios: power-weighted
    /// Arrhenius stress with super-linear Joule acceleration (`γ = 2.5`) and
    /// strong substrate thermal crosstalk, with magnitudes fitted so whole
    /// lifetimes fit in tens-to-hundreds of maintenance sessions (see
    /// `DESIGN.md` §5 and the module docs).
    pub fn accelerated_aging() -> ArrheniusAging {
        ArrheniusAging {
            a_f: 1.0e16,
            a_g: 1.2e15,
            power_exponent: 2.5,
            thermal_coupling: 4.0,
            ..ArrheniusAging::default()
        }
    }

    /// The paper's first test case at simulation scale: scaled LeNet-5 on a
    /// 10-class Cifar10 stand-in.
    pub fn lenet() -> Self {
        let mut framework = Framework::new(ModelKind::Lenet5Scaled { channels: 1, classes: 10 });
        framework.plan = TrainingPlan {
            pre_epochs: 14,
            skew_epochs: 40,
            base: TrainConfig { learning_rate: 0.03, ..TrainConfig::default() },
            // The conv net needs a gentler, longer skew stage than the MLP
            // testbed (small conv layers have little redundancy to absorb
            // the penalty) — see the Table II sweep in `exp_table2`.
            skew: crate::framework::SkewParams { c: 0.2, lambda1: 0.05, lambda2: 1.0e-3 },
            skew_lr_scale: 0.5,
            skew_conv_layers: false,
        };
        framework.aging = Scenario::accelerated_aging();
        framework.lifetime.target_accuracy = 0.75;
        framework.lifetime.max_sessions = 400;
        framework.lifetime.max_tuning_iterations = 150;
        framework.lifetime.drift_probability = 0.8;
        framework.lifetime.drift_sigma = 0.06;
        framework.lifetime.remap_trigger = 0.05;
        Scenario {
            name: "LeNet-5 (scaled) / synthetic-10".into(),
            data_spec: SyntheticSpec {
                classes: 10,
                channels: 1,
                height: 12,
                width: 12,
                samples_per_class: 100,
                noise_std: 1.0,
                seed: 101,
            },
            generator: DataGenerator::Blobs,
            calib_fraction: 0.3,
            framework,
            seed: 11,
        }
    }

    /// The paper's second test case at simulation scale: scaled VGG-16 on a
    /// many-class Cifar100 stand-in (geometric shapes).
    pub fn vgg() -> Self {
        let mut framework = Framework::new(ModelKind::Vgg16Scaled { channels: 1, classes: 20 });
        framework.plan = TrainingPlan {
            pre_epochs: 100,
            skew_epochs: 30,
            base: TrainConfig { learning_rate: 0.01, ..TrainConfig::default() },
            // VGG is deeper and more parameter-sensitive: the paper keeps
            // lambda1 == lambda2 for it (Table II discussion); like the
            // LeNet scenario, the scaled conv kernels stay on plain L2.
            skew: crate::framework::SkewParams { c: 0.2, lambda1: 0.1, lambda2: 2.0e-3 },
            skew_lr_scale: 0.5,
            skew_conv_layers: false,
        };
        framework.aging = Scenario::accelerated_aging();
        framework.lifetime.target_accuracy = 0.55;
        framework.lifetime.max_sessions = 250;
        framework.lifetime.max_tuning_iterations = 150;
        framework.lifetime.drift_probability = 0.8;
        framework.lifetime.drift_sigma = 0.06;
        framework.lifetime.remap_trigger = 0.05;
        framework.lifetime.batch_size = 25;
        Scenario {
            name: "VGG-16 (scaled) / synthetic-20".into(),
            data_spec: SyntheticSpec {
                classes: 20,
                channels: 1,
                height: 16,
                width: 16,
                samples_per_class: 20,
                noise_std: 0.25,
                seed: 202,
            },
            generator: DataGenerator::Shapes,
            calib_fraction: 0.4,
            framework,
            seed: 22,
        }
    }

    /// A fast MLP scenario for smoke tests and the quickstart example; this
    /// is also the calibration testbed used for the aging constants (8-class
    /// noisy blobs, 144-24-8 MLP).
    pub fn quick() -> Self {
        let mut framework = Framework::new(ModelKind::Mlp(vec![144, 24, 8]));
        framework.plan.pre_epochs = 12;
        framework.plan.skew_epochs = 10;
        framework.aging = Scenario::accelerated_aging();
        framework.lifetime.target_accuracy = 0.88;
        framework.lifetime.max_sessions = 400;
        framework.lifetime.max_tuning_iterations = 100;
        framework.lifetime.drift_probability = 0.8;
        framework.lifetime.drift_sigma = 0.06;
        framework.lifetime.remap_trigger = 0.05;
        Scenario {
            name: "MLP / synthetic-8 (quick)".into(),
            data_spec: SyntheticSpec {
                classes: 8,
                channels: 1,
                height: 12,
                width: 12,
                samples_per_class: 50,
                noise_std: 0.8,
                seed: 77,
            },
            generator: DataGenerator::Blobs,
            calib_fraction: 0.5,
            framework,
            seed: 7,
        }
    }

    /// Generates (and normalizes) the scenario's dataset.
    ///
    /// # Errors
    ///
    /// Propagates dataset generation errors.
    pub fn dataset(&self) -> Result<Dataset, FrameworkError> {
        let mut data = match self.generator {
            DataGenerator::Blobs => Dataset::gaussian_blobs(&self.data_spec)?,
            DataGenerator::Shapes => Dataset::shapes(&self.data_spec)?,
        };
        data.normalize();
        Ok(data)
    }

    /// Splits the scenario dataset into `(train, calibration)`: training
    /// uses `1 − calib_fraction` of each class; the held-out calibration
    /// subset drives online tuning and lifetime evaluation, so memorization
    /// cannot inflate the deployed accuracy.
    ///
    /// # Errors
    ///
    /// Propagates dataset errors.
    pub fn train_calib_split(&self, data: &Dataset) -> Result<(Dataset, Dataset), FrameworkError> {
        Ok(data.split(1.0 - self.calib_fraction)?)
    }

    /// The held-out calibration subset (see
    /// [`Scenario::train_calib_split`]).
    ///
    /// # Errors
    ///
    /// Propagates dataset errors.
    pub fn calibration(&self, data: &Dataset) -> Result<Dataset, FrameworkError> {
        Ok(self.train_calib_split(data)?.1)
    }

    /// Runs one strategy end-to-end: generate data, train on the training
    /// split, simulate lifetime against the held-out calibration subset.
    ///
    /// # Errors
    ///
    /// Propagates framework errors.
    pub fn run_strategy(&self, strategy: Strategy) -> Result<StrategyOutcome, FrameworkError> {
        let data = self.dataset()?;
        let (train, calib) = self.train_calib_split(&data)?;
        self.framework.run_strategy_with_calib(&train, &calib, strategy, self.seed)
    }

    /// Runs all three strategies in Table-I order.
    ///
    /// # Errors
    ///
    /// Propagates the first failure.
    pub fn run_all(&self) -> Result<Vec<StrategyOutcome>, FrameworkError> {
        let data = self.dataset()?;
        let (train, calib) = self.train_calib_split(&data)?;
        Strategy::ALL
            .iter()
            .map(|&s| self.framework.run_strategy_with_calib(&train, &calib, s, self.seed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_generate_valid_datasets() {
        for scenario in [Scenario::lenet(), Scenario::quick()] {
            let data = scenario.dataset().unwrap();
            assert_eq!(data.num_classes(), scenario.data_spec.classes);
            let calib = scenario.calibration(&data).unwrap();
            assert!(calib.len() < data.len());
            assert!(!calib.is_empty());
        }
    }

    #[test]
    fn vgg_scenario_dataset_matches_model_input() {
        let s = Scenario::vgg();
        let data = s.dataset().unwrap();
        let (c, h, w) = data.image_shape();
        let net = s.framework.model.build(1).unwrap();
        assert_eq!(net.in_features(), c * h * w);
        assert_eq!(net.out_features(), s.data_spec.classes);
    }

    #[test]
    fn lenet_scenario_dataset_matches_model_input() {
        let s = Scenario::lenet();
        let data = s.dataset().unwrap();
        let (c, h, w) = data.image_shape();
        let net = s.framework.model.build(1).unwrap();
        assert_eq!(net.in_features(), c * h * w);
    }

    #[test]
    fn quick_scenario_runs_a_strategy() {
        let mut s = Scenario::quick();
        s.framework.lifetime.max_sessions = 2;
        let outcome = s.run_strategy(Strategy::TT).unwrap();
        assert!(!outcome.lifetime.sessions.is_empty());
        assert!(outcome.software_accuracy > 0.7);
    }
}
