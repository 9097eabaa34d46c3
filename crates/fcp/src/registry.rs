//! The pattern registry: the palette of available FCPs, extendable with
//! custom patterns (demo part P3: "saving custom processing preferences,
//! adding them to the palette of available patterns for future execution").

use crate::builtin::{
    AddCheckpoint, CrosscheckSources, EnableAccessControl, EncryptChannels, FilterNullValues,
    IncreaseRecurrence, ParallelizeTask, RemoveDuplicateEntries, UpgradeResources,
};
use crate::pattern::Pattern;
use quality::Characteristic;
use std::sync::Arc;

/// An extendable palette of Flow Component Patterns.
#[derive(Clone, Default)]
pub struct PatternRegistry {
    patterns: Vec<Arc<dyn Pattern>>,
}

impl PatternRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        PatternRegistry::default()
    }

    /// The paper's Fig. 6 palette: the five classic FCPs.
    /// `crosscheck_specs` are the `(key attribute, alternative source)`
    /// pairs available to `CrosscheckSources`.
    pub fn fig6_palette(crosscheck_specs: Vec<(String, String)>) -> Self {
        let mut r = PatternRegistry::new();
        r.register(RemoveDuplicateEntries);
        r.register(FilterNullValues);
        r.register(CrosscheckSources::new(crosscheck_specs));
        r.register(ParallelizeTask::default());
        r.register(AddCheckpoint);
        r
    }

    /// Full standard palette: Fig. 6 plus the graph-level configuration
    /// patterns of §2.2.
    pub fn standard(crosscheck_specs: Vec<(String, String)>) -> Self {
        let mut r = Self::fig6_palette(crosscheck_specs);
        r.register(EncryptChannels);
        r.register(EnableAccessControl);
        r.register(UpgradeResources);
        r.register(IncreaseRecurrence);
        r
    }

    /// Standard palette with crosscheck specs derived from a catalog.
    pub fn standard_for_catalog(catalog: &datagen::Catalog) -> Self {
        let specs = CrosscheckSources::from_catalog(catalog);
        let mut r = PatternRegistry::new();
        r.register(RemoveDuplicateEntries);
        r.register(FilterNullValues);
        r.register(specs);
        r.register(ParallelizeTask::default());
        r.register(AddCheckpoint);
        r.register(EncryptChannels);
        r.register(EnableAccessControl);
        r.register(UpgradeResources);
        r.register(IncreaseRecurrence);
        r
    }

    /// Adds a pattern to the palette.
    pub fn register(&mut self, pattern: impl Pattern + 'static) {
        self.patterns.push(Arc::new(pattern));
    }

    /// Number of registered patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when the palette is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Iterates over the palette.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Pattern>> {
        self.patterns.iter()
    }

    /// Looks a pattern up by name.
    pub fn by_name(&self, name: &str) -> Option<&Arc<dyn Pattern>> {
        self.patterns.iter().find(|p| p.name() == name)
    }

    /// Restricts the palette to patterns improving the given
    /// characteristics (empty filter = everything) — the P2 interaction
    /// ("users will be allowed to choose which of the available Flow
    /// Component Patterns will be used").
    pub fn filtered(&self, improve: &[Characteristic]) -> PatternRegistry {
        if improve.is_empty() {
            return self.clone();
        }
        PatternRegistry {
            patterns: self
                .patterns
                .iter()
                .filter(|p| improve.contains(&p.improves()))
                .cloned()
                .collect(),
        }
    }

    /// Restricts the palette to the named patterns.
    pub fn subset(&self, names: &[&str]) -> PatternRegistry {
        PatternRegistry {
            patterns: self
                .patterns
                .iter()
                .filter(|p| names.contains(&p.name()))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_palette_matches_paper() {
        let r = PatternRegistry::fig6_palette(vec![]);
        assert_eq!(r.len(), 5);
        for name in [
            "RemoveDuplicateEntries",
            "FilterNullValues",
            "CrosscheckSources",
            "ParallelizeTask",
            "AddCheckpoint",
        ] {
            assert!(r.by_name(name).is_some(), "missing {name}");
        }
        // related quality attributes as in Fig. 6
        assert_eq!(
            r.by_name("RemoveDuplicateEntries").unwrap().improves(),
            Characteristic::DataQuality
        );
        assert_eq!(
            r.by_name("ParallelizeTask").unwrap().improves(),
            Characteristic::Performance
        );
        assert_eq!(
            r.by_name("AddCheckpoint").unwrap().improves(),
            Characteristic::Reliability
        );
    }

    #[test]
    fn standard_adds_graph_patterns() {
        let r = PatternRegistry::standard(vec![]);
        assert_eq!(r.len(), 9);
        assert!(r.by_name("EncryptChannels").is_some());
    }

    #[test]
    fn filter_by_characteristic() {
        let r = PatternRegistry::standard(vec![]);
        let dq = r.filtered(&[Characteristic::DataQuality]);
        assert_eq!(dq.len(), 4); // 3 cleaning + IncreaseRecurrence
        let all = r.filtered(&[]);
        assert_eq!(all.len(), r.len());
    }

    #[test]
    fn subset_by_name() {
        let r = PatternRegistry::standard(vec![]);
        let s = r.subset(&["AddCheckpoint", "ParallelizeTask"]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn custom_registration_extends_palette() {
        use crate::custom::{CustomPattern, FitnessPreset};
        let mut r = PatternRegistry::fig6_palette(vec![]);
        r.register(CustomPattern::new(
            "MyPattern",
            Characteristic::Performance,
            vec![],
            FitnessPreset::Uniform,
            |_| etl_model::Operation::new("noop", etl_model::OpKind::Split),
        ));
        assert_eq!(r.len(), 6);
        assert!(r.by_name("MyPattern").is_some());
    }
}
