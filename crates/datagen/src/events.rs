//! The Major Events List (Table 9 of the paper).
//!
//! The paper evaluates on 18 real events that took place during the Topix
//! crawl (September 2008 – July 2009), grouped into three loosely-defined
//! impact tiers: global (1–6), multi-country (7–12) and localized (13–18).
//! Each event carries the query a human annotator chose for it, a short
//! description, the country where the event originated (its epicenter), and
//! the approximate week (0-based, week 0 = first week of September 2008)
//! when it happened. The synthetic Topix corpus injects these events so that
//! Table 1, Table 3 and Figure 4 can be reproduced end to end.

/// Impact tier of an event, matching the three groups of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventTier {
    /// Events 1–6: significant global impact.
    Global,
    /// Events 7–12: reported in a significant number of countries.
    MultiCountry,
    /// Events 13–18: localized impact.
    Localized,
}

impl EventTier {
    /// A short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            EventTier::Global => "global",
            EventTier::MultiCountry => "multi-country",
            EventTier::Localized => "localized",
        }
    }
}

/// One entry of the Major Events List.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MajorEvent {
    /// 1-based event number, matching the paper's Table 1/Table 9 rows.
    pub id: usize,
    /// The query a user would submit to find the event (2nd column of
    /// Table 9).
    pub query: &'static str,
    /// Short description of the event (3rd column of Table 9).
    pub description: &'static str,
    /// ISO 3166-1 alpha-2 code of the country where the event originated.
    pub epicenter: &'static str,
    /// Impact tier.
    pub tier: EventTier,
    /// 0-based week (from the start of September 2008) when the event's
    /// burst starts.
    pub start_week: usize,
    /// Duration of the event's burst, in weeks.
    pub duration_weeks: usize,
}

/// The 18 events of the paper's Table 9.
pub(crate) fn major_events() -> &'static [MajorEvent] {
    MAJOR_EVENTS
}

static MAJOR_EVENTS: &[MajorEvent] = &[
    MajorEvent {
        id: 1,
        query: "Obama",
        description: "Events regarding the actions of B. Obama, the new President of the USA since January of 2009.",
        epicenter: "US",
        tier: EventTier::Global,
        start_week: 9,
        duration_weeks: 32,
    },
    MajorEvent {
        id: 2,
        query: "financial crisis",
        description: "Events regarding the global financial crisis.",
        epicenter: "US",
        tier: EventTier::Global,
        start_week: 2,
        duration_weeks: 40,
    },
    MajorEvent {
        id: 3,
        query: "terrorists",
        description: "Events regarding terrorism.",
        epicenter: "IN",
        tier: EventTier::Global,
        start_week: 12,
        duration_weeks: 16,
    },
    MajorEvent {
        id: 4,
        query: "Jackson",
        description: "American entertainer Michael Jackson passes away.",
        epicenter: "US",
        tier: EventTier::Global,
        start_week: 42,
        duration_weeks: 5,
    },
    MajorEvent {
        id: 5,
        query: "swine",
        description: "Events regarding the 2009 swine flu pandemic.",
        epicenter: "MX",
        tier: EventTier::Global,
        start_week: 34,
        duration_weeks: 13,
    },
    MajorEvent {
        id: 6,
        query: "earthquake",
        description: "Events regarding earthquakes.",
        epicenter: "CR",
        tier: EventTier::Global,
        start_week: 18,
        duration_weeks: 6,
    },
    MajorEvent {
        id: 7,
        query: "gaza",
        description: "Events regarding the Israeli Palestinian conflict in the Gaza Strip.",
        epicenter: "IL",
        tier: EventTier::MultiCountry,
        start_week: 16,
        duration_weeks: 7,
    },
    MajorEvent {
        id: 8,
        query: "ceasefire",
        description: "Israel announces a unilateral ceasefire in the Gaza War.",
        epicenter: "IL",
        tier: EventTier::MultiCountry,
        start_week: 20,
        duration_weeks: 3,
    },
    MajorEvent {
        id: 9,
        query: "yemenia",
        description: "Yemenia Flight 626 crashes off the coast of Moroni, Comoros, killing all but one of the 153 passengers and crew.",
        epicenter: "KM",
        tier: EventTier::MultiCountry,
        start_week: 43,
        duration_weeks: 3,
    },
    MajorEvent {
        id: 10,
        query: "piracy",
        description: "Events regarding incidents of Piracy off the Somali coast.",
        epicenter: "SO",
        tier: EventTier::MultiCountry,
        start_week: 30,
        duration_weeks: 12,
    },
    MajorEvent {
        id: 11,
        query: "Air France",
        description: "Air France Flight 447 from Rio de Janeiro to Paris crashes into the Atlantic Ocean killing all 228 on board.",
        epicenter: "BR",
        tier: EventTier::MultiCountry,
        start_week: 39,
        duration_weeks: 4,
    },
    MajorEvent {
        id: 12,
        query: "bush fires",
        description: "Deadly bush fires in Australia kill 173, injure 500 more, and leave 7,500 homeless.",
        epicenter: "AU",
        tier: EventTier::MultiCountry,
        start_week: 22,
        duration_weeks: 4,
    },
    MajorEvent {
        id: 13,
        query: "Nkunda",
        description: "Congolese rebel leader L. Nkunda is captured by Rwandan forces.",
        epicenter: "CD",
        tier: EventTier::Localized,
        start_week: 20,
        duration_weeks: 3,
    },
    MajorEvent {
        id: 14,
        query: "Vieira",
        description: "The President of Guinea-Bissau, J. B. Vieira, is assassinated.",
        epicenter: "GW",
        tier: EventTier::Localized,
        start_week: 26,
        duration_weeks: 3,
    },
    MajorEvent {
        id: 15,
        query: "Tsvangirai",
        description: "M. Tsvangirai is sworn in as the new Prime Minister of Zimbabwe.",
        epicenter: "ZW",
        tier: EventTier::Localized,
        start_week: 23,
        duration_weeks: 3,
    },
    MajorEvent {
        id: 16,
        query: "Rajoelina",
        description: "Andry Rajoelina becomes the new President of Madagascar after a military coup d'etat.",
        epicenter: "MG",
        tier: EventTier::Localized,
        start_week: 28,
        duration_weeks: 4,
    },
    MajorEvent {
        id: 17,
        query: "Fujimori",
        description: "Former Peruvian Pres. Fujimori is sentenced to 25 years in prison for killings and kidnappings by security forces.",
        epicenter: "PE",
        tier: EventTier::Localized,
        start_week: 31,
        duration_weeks: 3,
    },
    MajorEvent {
        id: 18,
        query: "Zelaya",
        description: "The Supreme Court of Honduras orders the arrest and exile of President M. Zelaya.",
        epicenter: "HN",
        tier: EventTier::Localized,
        start_week: 43,
        duration_weeks: 4,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use stb_geo::countries::by_code;

    #[test]
    fn there_are_exactly_18_events() {
        assert_eq!(major_events().len(), 18);
    }

    #[test]
    fn ids_are_1_to_18_in_order() {
        for (i, e) in major_events().iter().enumerate() {
            assert_eq!(e.id, i + 1);
        }
    }

    #[test]
    fn tier_grouping_matches_the_paper() {
        for e in major_events() {
            let expected = if e.id <= 6 {
                EventTier::Global
            } else if e.id <= 12 {
                EventTier::MultiCountry
            } else {
                EventTier::Localized
            };
            assert_eq!(e.tier, expected, "event {}", e.id);
        }
    }

    #[test]
    fn epicenters_exist_in_the_gazetteer() {
        for e in major_events() {
            assert!(
                by_code(e.epicenter).is_some(),
                "missing country {}",
                e.epicenter
            );
        }
    }

    #[test]
    fn events_fit_the_48_week_timeline() {
        for e in major_events() {
            assert!(e.duration_weeks >= 1);
            assert!(
                e.start_week + e.duration_weeks <= 48,
                "event {} overruns the timeline",
                e.id
            );
        }
    }

    #[test]
    fn queries_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for e in major_events() {
            assert!(!e.query.is_empty());
            assert!(seen.insert(e.query), "duplicate query {}", e.query);
        }
    }

    #[test]
    fn tier_labels() {
        assert_eq!(EventTier::Global.label(), "global");
        assert_eq!(EventTier::MultiCountry.label(), "multi-country");
        assert_eq!(EventTier::Localized.label(), "localized");
    }
}
