//! Execution plans: which device runs each unit (or each FDSP tile).

use murmuration_edgesim::DeviceId;
use murmuration_supernet::SubnetSpec;

/// Placement of one execution unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnitPlacement {
    /// The whole unit runs on one device.
    Single(DeviceId),
    /// FDSP tiles, one entry per tile (row-major tile order). Length must
    /// equal the unit's grid tile count.
    Tiled(Vec<DeviceId>),
}

impl UnitPlacement {
    /// The device of every tile, row-major (one entry for `Single`).
    pub fn tiles(&self) -> &[DeviceId] {
        match self {
            UnitPlacement::Single(d) => std::slice::from_ref(d),
            UnitPlacement::Tiled(devs) => devs,
        }
    }

    /// Number of parallel executors.
    pub fn width(&self) -> usize {
        self.tiles().len()
    }
}

/// Participants of a tile list with same-device tiles merged: `(device,
/// combined input fraction, tile count)`, in first-occurrence order. Tiles
/// mapped to one device execute *serially* there, so timing models must use
/// this view. Each fraction is summed tile by tile (the order every price's
/// bits were frozen with); nothing is allocated.
pub(crate) fn participants(
    tiles: &[DeviceId],
) -> impl Iterator<Item = (DeviceId, f64, usize)> + Clone + '_ {
    let f = 1.0 / tiles.len() as f64;
    tiles.iter().enumerate().filter(move |&(i, d)| !tiles[..i].contains(d)).map(move |(i, &d)| {
        let count = tiles[i..].iter().filter(|&&t| t == d).count();
        (d, (0..count).fold(0.0, |frac, _| frac + f), count)
    })
}

/// A complete plan: one placement per unit of a [`SubnetSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionPlan {
    pub placements: Vec<UnitPlacement>,
}

impl ExecutionPlan {
    /// Everything on one device.
    pub fn all_on(spec: &SubnetSpec, dev: DeviceId) -> Self {
        ExecutionPlan {
            placements: spec.units.iter().map(|_| UnitPlacement::Single(dev)).collect(),
        }
    }

    /// Validates the plan against a spec and a device count.
    ///
    /// Rules: one placement per unit; tile counts match each unit's grid;
    /// device ids in range; units whose layers cannot be spatially tiled
    /// (stem/head FCs) must be `Single`; a unit with a 1×1 grid must be
    /// `Single`.
    pub fn validate(&self, spec: &SubnetSpec, n_devices: usize) -> Result<(), String> {
        if self.placements.len() != spec.units.len() {
            return Err(format!(
                "plan has {} placements for {} units",
                self.placements.len(),
                spec.units.len()
            ));
        }
        for (unit, p) in spec.units.iter().zip(&self.placements) {
            match p {
                UnitPlacement::Single(d) => {
                    if *d >= n_devices {
                        return Err(format!("{}: device {d} out of range", unit.name));
                    }
                }
                UnitPlacement::Tiled(devs) => {
                    if unit.partition.is_identity() {
                        return Err(format!("{}: 1x1 grid must be Single", unit.name));
                    }
                    if !unit.spatially_partitionable() {
                        return Err(format!("{}: unit cannot be spatially tiled", unit.name));
                    }
                    if devs.len() != unit.partition.tiles() {
                        return Err(format!(
                            "{}: {} tile devices for a {}-tile grid",
                            unit.name,
                            devs.len(),
                            unit.partition.tiles()
                        ));
                    }
                    if let Some(&bad) = devs.iter().find(|&&d| d >= n_devices) {
                        return Err(format!("{}: device {bad} out of range", unit.name));
                    }
                }
            }
        }
        Ok(())
    }

    /// All devices referenced anywhere in the plan, sorted and deduplicated.
    pub fn devices_used(&self) -> Vec<DeviceId> {
        let mut devs: Vec<DeviceId> =
            self.placements.iter().flat_map(|p| p.tiles().iter().copied()).collect();
        devs.sort_unstable();
        devs.dedup();
        devs
    }

    /// Whether every device the plan touches is alive under `alive`
    /// (devices beyond the mask's length count as dead).
    pub fn is_feasible(&self, alive: &[bool]) -> bool {
        self.devices_used().iter().all(|&d| alive.get(d).copied().unwrap_or(false))
    }

    /// A reasonable default plan for a spec: partitioned stages spread
    /// tiles round-robin over all devices, everything else on device 0.
    pub fn spread(spec: &SubnetSpec, n_devices: usize) -> Self {
        let placements = spec
            .units
            .iter()
            .map(|u| {
                if u.partition.is_identity() || !u.spatially_partitionable() || n_devices == 1 {
                    UnitPlacement::Single(0)
                } else {
                    let tiles = u.partition.tiles();
                    UnitPlacement::Tiled((0..tiles).map(|t| t % n_devices).collect())
                }
            })
            .collect();
        ExecutionPlan { placements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use murmuration_supernet::space::SearchSpace;
    use murmuration_tensor::tile::GridSpec;

    fn spec_with_partition() -> SubnetSpec {
        let s = SearchSpace::default();
        let mut cfg = s.min_config();
        cfg.stages[1].partition = GridSpec::new(2, 2);
        SubnetSpec::lower(&cfg)
    }

    #[test]
    fn all_on_is_valid() {
        let spec = spec_with_partition();
        // all_on leaves the tiled stage Single — valid (a 2x2-capable unit
        // may still run whole on one device).
        let plan = ExecutionPlan::all_on(&spec, 0);
        assert!(plan.validate(&spec, 1).is_ok());
    }

    #[test]
    fn tiled_requires_matching_tile_count() {
        let spec = spec_with_partition();
        let mut plan = ExecutionPlan::all_on(&spec, 0);
        plan.placements[2] = UnitPlacement::Tiled(vec![0, 1]); // stage1 is unit 2
        assert!(plan.validate(&spec, 2).is_err());
        plan.placements[2] = UnitPlacement::Tiled(vec![0, 1, 0, 1]);
        assert!(plan.validate(&spec, 2).is_ok());
    }

    #[test]
    fn rejects_out_of_range_devices() {
        let spec = spec_with_partition();
        let mut plan = ExecutionPlan::all_on(&spec, 0);
        plan.placements[0] = UnitPlacement::Single(7);
        assert!(plan.validate(&spec, 2).is_err());
    }

    #[test]
    fn rejects_tiling_identity_grids() {
        let spec = spec_with_partition();
        let mut plan = ExecutionPlan::all_on(&spec, 0);
        plan.placements[1] = UnitPlacement::Tiled(vec![0]); // stage0 is 1x1
        assert!(plan.validate(&spec, 2).is_err());
    }

    #[test]
    fn rejects_tiling_the_head() {
        let spec = spec_with_partition();
        let mut plan = ExecutionPlan::all_on(&spec, 0);
        let last = plan.placements.len() - 1;
        plan.placements[last] = UnitPlacement::Tiled(vec![0]);
        assert!(plan.validate(&spec, 2).is_err());
    }

    #[test]
    fn spread_is_always_valid() {
        let s = SearchSpace::default();
        let mut rng = rand::rngs::mock::StepRng::new(7, 11);
        use rand::Rng;
        let _ = rng.gen_range(0..5);
        for n in 1..6 {
            let spec = spec_with_partition();
            let plan = ExecutionPlan::spread(&spec, n);
            plan.validate(&spec, n).unwrap();
        }
        // And for a fully random config.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let cfg = s.sample(&mut rng);
            let spec = SubnetSpec::lower(&cfg);
            let plan = ExecutionPlan::spread(&spec, 5);
            plan.validate(&spec, 5).unwrap();
        }
    }

    #[test]
    fn merged_shares_are_consistent_with_shares() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(&proptest::collection::vec(0usize..5, 1..12), |devs| {
                let merged: Vec<_> = participants(&devs).collect();
                // Fractions sum to 1 and counts sum to the tile count.
                let frac: f64 = merged.iter().map(|m| m.1).sum();
                prop_assert!((frac - 1.0).abs() < 1e-9);
                let count: usize = merged.iter().map(|m| m.2).sum();
                prop_assert_eq!(count, devs.len());
                // Each device appears at most once.
                let mut seen = std::collections::HashSet::new();
                for m in &merged {
                    prop_assert!(seen.insert(m.0));
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn feasibility_tracks_devices_used() {
        let spec = spec_with_partition();
        let mut plan = ExecutionPlan::all_on(&spec, 0);
        plan.placements[2] = UnitPlacement::Tiled(vec![0, 1, 0, 2]);
        assert_eq!(plan.devices_used(), vec![0, 1, 2]);
        assert!(plan.is_feasible(&[true, true, true]));
        assert!(!plan.is_feasible(&[true, true, false]), "device 2 dead");
        assert!(!plan.is_feasible(&[true, true]), "mask shorter than fleet");
        let local = ExecutionPlan::all_on(&spec, 0);
        assert!(local.is_feasible(&[true, false, false]), "all-local survives any remote loss");
    }

    #[test]
    fn shares_sum_to_one() {
        let p = UnitPlacement::Tiled(vec![0, 1, 2, 0]);
        let s: f64 = participants(p.tiles()).map(|(_, f, _)| f).sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(p.width(), 4);
    }
}
