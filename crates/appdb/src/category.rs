//! Google Play app categories, as used in Fig. 6.

use core::fmt;

/// The fifteen Google Play categories the paper's category analysis covers
/// (Fig. 6 shows exactly these).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[allow(missing_docs)]
pub enum AppCategory {
    Communication,
    Shopping,
    Social,
    Weather,
    MusicAudio,
    Sports,
    NewsMagazines,
    Entertainment,
    Productivity,
    MapsNavigation,
    Tools,
    TravelLocal,
    Finance,
    HealthFitness,
    Lifestyle,
}

impl AppCategory {
    /// All categories, in the users-rank order of Fig. 6(a).
    pub const ALL: [AppCategory; 15] = [
        AppCategory::Communication,
        AppCategory::Shopping,
        AppCategory::Social,
        AppCategory::Weather,
        AppCategory::MusicAudio,
        AppCategory::Sports,
        AppCategory::NewsMagazines,
        AppCategory::Entertainment,
        AppCategory::Productivity,
        AppCategory::MapsNavigation,
        AppCategory::Tools,
        AppCategory::TravelLocal,
        AppCategory::Finance,
        AppCategory::HealthFitness,
        AppCategory::Lifestyle,
    ];

    /// Stable dense index (the position in [`AppCategory::ALL`]).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every category is in ALL")
    }

    /// The Play-Store style display name.
    pub const fn name(self) -> &'static str {
        match self {
            AppCategory::Communication => "Communication",
            AppCategory::Shopping => "Shopping",
            AppCategory::Social => "Social",
            AppCategory::Weather => "Weather",
            AppCategory::MusicAudio => "Music-Audio",
            AppCategory::Sports => "Sports",
            AppCategory::NewsMagazines => "News-Magazines",
            AppCategory::Entertainment => "Entertainment",
            AppCategory::Productivity => "Productivity",
            AppCategory::MapsNavigation => "Maps-Navigation",
            AppCategory::Tools => "Tools",
            AppCategory::TravelLocal => "Travel-Local",
            AppCategory::Finance => "Finance",
            AppCategory::HealthFitness => "Health-Fitness",
            AppCategory::Lifestyle => "Lifestyle",
        }
    }
}

impl fmt::Display for AppCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_categories() {
        assert_eq!(AppCategory::ALL.len(), 15);
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, c) in AppCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = AppCategory::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }
}
