//! Country gazetteer: approximate centroids of the world's countries.
//!
//! The Topix dataset used in the paper aggregates news sources per country
//! (181 countries, Sep-2008..Jul-2009). The original crawl is not publicly
//! available, so the synthetic corpus in `stb-datagen` uses this static
//! gazetteer as the set of stream geostamps. Centroids are approximate
//! (country-scale accuracy): the mining algorithms only rely on relative
//! proximity, never on sub-degree precision.

use crate::point::GeoPoint;

/// A country entry: ISO-3166 alpha-2 code, English short name, and an
/// approximate centroid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Country {
    /// ISO 3166-1 alpha-2 code.
    pub code: &'static str,
    /// English short name.
    pub name: &'static str,
    /// Approximate centroid latitude (decimal degrees).
    pub(crate) lat: f64,
    /// Approximate centroid longitude (decimal degrees).
    pub(crate) lon: f64,
}

impl Country {
    /// The country's centroid as a [`GeoPoint`].
    pub fn geostamp(&self) -> GeoPoint {
        GeoPoint::new(self.lat, self.lon)
    }
}

/// Returns the full gazetteer, sorted by ISO code.
pub fn all_countries() -> &'static [Country] {
    COUNTRIES
}

/// Looks up a country by its ISO 3166-1 alpha-2 code (case-insensitive).
pub fn by_code(code: &str) -> Option<&'static Country> {
    let upper = code.to_ascii_uppercase();
    COUNTRIES.iter().find(|c| c.code == upper)
}

/// Looks up a country by its English short name (case-insensitive).
#[cfg(test)]
pub(crate) fn by_name(name: &str) -> Option<&'static Country> {
    COUNTRIES.iter().find(|c| c.name.eq_ignore_ascii_case(name))
}

macro_rules! country {
    ($code:literal, $name:literal, $lat:expr, $lon:expr) => {
        Country {
            code: $code,
            name: $name,
            lat: $lat,
            lon: $lon,
        }
    };
}

/// Static gazetteer data. 181 entries, matching the number of country-level
/// streams reported for the Topix dataset.
static COUNTRIES: &[Country] = &[
    country!("AE", "United Arab Emirates", 24.0, 54.0),
    country!("AF", "Afghanistan", 33.0, 65.0),
    country!("AG", "Antigua and Barbuda", 17.05, -61.8),
    country!("AL", "Albania", 41.0, 20.0),
    country!("AM", "Armenia", 40.0, 45.0),
    country!("AO", "Angola", -12.5, 18.5),
    country!("AR", "Argentina", -34.0, -64.0),
    country!("AT", "Austria", 47.3, 13.3),
    country!("AU", "Australia", -25.0, 134.0),
    country!("AZ", "Azerbaijan", 40.5, 47.5),
    country!("BA", "Bosnia and Herzegovina", 44.0, 18.0),
    country!("BB", "Barbados", 13.2, -59.5),
    country!("BD", "Bangladesh", 24.0, 90.0),
    country!("BE", "Belgium", 50.8, 4.0),
    country!("BF", "Burkina Faso", 13.0, -2.0),
    country!("BG", "Bulgaria", 43.0, 25.0),
    country!("BH", "Bahrain", 26.0, 50.5),
    country!("BI", "Burundi", -3.5, 30.0),
    country!("BJ", "Benin", 9.5, 2.25),
    country!("BN", "Brunei", 4.5, 114.7),
    country!("BO", "Bolivia", -17.0, -65.0),
    country!("BR", "Brazil", -10.0, -55.0),
    country!("BS", "Bahamas", 24.25, -76.0),
    country!("BT", "Bhutan", 27.5, 90.5),
    country!("BW", "Botswana", -22.0, 24.0),
    country!("BY", "Belarus", 53.0, 28.0),
    country!("BZ", "Belize", 17.25, -88.75),
    country!("CA", "Canada", 56.0, -106.0),
    country!("CD", "DR Congo", -2.0, 23.0),
    country!("CF", "Central African Republic", 7.0, 21.0),
    country!("CG", "Republic of the Congo", -1.0, 15.0),
    country!("CH", "Switzerland", 47.0, 8.0),
    country!("CI", "Ivory Coast", 8.0, -5.0),
    country!("CL", "Chile", -30.0, -71.0),
    country!("CM", "Cameroon", 6.0, 12.0),
    country!("CN", "China", 35.0, 105.0),
    country!("CO", "Colombia", 4.0, -72.0),
    country!("CR", "Costa Rica", 10.0, -84.0),
    country!("CU", "Cuba", 21.5, -80.0),
    country!("CV", "Cape Verde", 16.0, -24.0),
    country!("CY", "Cyprus", 35.0, 33.0),
    country!("CZ", "Czech Republic", 49.75, 15.5),
    country!("DE", "Germany", 51.0, 9.0),
    country!("DJ", "Djibouti", 11.5, 43.0),
    country!("DK", "Denmark", 56.0, 10.0),
    country!("DO", "Dominican Republic", 19.0, -70.7),
    country!("DZ", "Algeria", 28.0, 3.0),
    country!("EC", "Ecuador", -2.0, -77.5),
    country!("EE", "Estonia", 59.0, 26.0),
    country!("EG", "Egypt", 27.0, 30.0),
    country!("ER", "Eritrea", 15.0, 39.0),
    country!("ES", "Spain", 40.0, -4.0),
    country!("ET", "Ethiopia", 8.0, 38.0),
    country!("FI", "Finland", 64.0, 26.0),
    country!("FJ", "Fiji", -18.0, 175.0),
    country!("FR", "France", 46.0, 2.0),
    country!("GA", "Gabon", -1.0, 11.75),
    country!("GB", "United Kingdom", 54.0, -2.0),
    country!("GD", "Grenada", 12.1, -61.7),
    country!("GE", "Georgia", 42.0, 43.5),
    country!("GH", "Ghana", 8.0, -2.0),
    country!("GM", "Gambia", 13.5, -15.5),
    country!("GN", "Guinea", 11.0, -10.0),
    country!("GQ", "Equatorial Guinea", 2.0, 10.0),
    country!("GR", "Greece", 39.0, 22.0),
    country!("GT", "Guatemala", 15.5, -90.25),
    country!("GW", "Guinea-Bissau", 12.0, -15.0),
    country!("GY", "Guyana", 5.0, -59.0),
    country!("HN", "Honduras", 15.0, -86.5),
    country!("HR", "Croatia", 45.2, 15.5),
    country!("HT", "Haiti", 19.0, -72.4),
    country!("HU", "Hungary", 47.0, 20.0),
    country!("ID", "Indonesia", -5.0, 120.0),
    country!("IE", "Ireland", 53.0, -8.0),
    country!("IL", "Israel", 31.5, 34.75),
    country!("IN", "India", 20.0, 77.0),
    country!("IQ", "Iraq", 33.0, 44.0),
    country!("IR", "Iran", 32.0, 53.0),
    country!("IS", "Iceland", 65.0, -18.0),
    country!("IT", "Italy", 42.8, 12.8),
    country!("JM", "Jamaica", 18.25, -77.5),
    country!("JO", "Jordan", 31.0, 36.0),
    country!("JP", "Japan", 36.0, 138.0),
    country!("KE", "Kenya", 1.0, 38.0),
    country!("KG", "Kyrgyzstan", 41.0, 75.0),
    country!("KH", "Cambodia", 13.0, 105.0),
    country!("KM", "Comoros", -12.2, 44.25),
    country!("KP", "North Korea", 40.0, 127.0),
    country!("KR", "South Korea", 37.0, 127.5),
    country!("KW", "Kuwait", 29.3, 47.65),
    country!("KZ", "Kazakhstan", 48.0, 68.0),
    country!("LA", "Laos", 18.0, 105.0),
    country!("LB", "Lebanon", 33.8, 35.8),
    country!("LC", "Saint Lucia", 13.9, -61.0),
    country!("LK", "Sri Lanka", 7.0, 81.0),
    country!("LR", "Liberia", 6.5, -9.5),
    country!("LS", "Lesotho", -29.5, 28.5),
    country!("LT", "Lithuania", 56.0, 24.0),
    country!("LU", "Luxembourg", 49.75, 6.16),
    country!("LV", "Latvia", 57.0, 25.0),
    country!("LY", "Libya", 25.0, 17.0),
    country!("MA", "Morocco", 32.0, -5.0),
    country!("MD", "Moldova", 47.0, 29.0),
    country!("ME", "Montenegro", 42.5, 19.3),
    country!("MG", "Madagascar", -20.0, 47.0),
    country!("MK", "North Macedonia", 41.8, 22.0),
    country!("ML", "Mali", 17.0, -4.0),
    country!("MM", "Myanmar", 22.0, 98.0),
    country!("MN", "Mongolia", 46.0, 105.0),
    country!("MR", "Mauritania", 20.0, -12.0),
    country!("MT", "Malta", 35.83, 14.58),
    country!("MU", "Mauritius", -20.28, 57.55),
    country!("MV", "Maldives", 3.25, 73.0),
    country!("MW", "Malawi", -13.5, 34.0),
    country!("MX", "Mexico", 23.0, -102.0),
    country!("MY", "Malaysia", 2.5, 112.5),
    country!("MZ", "Mozambique", -18.25, 35.0),
    country!("NA", "Namibia", -22.0, 17.0),
    country!("NE", "Niger", 16.0, 8.0),
    country!("NG", "Nigeria", 10.0, 8.0),
    country!("NI", "Nicaragua", 13.0, -85.0),
    country!("NL", "Netherlands", 52.5, 5.75),
    country!("NO", "Norway", 62.0, 10.0),
    country!("NP", "Nepal", 28.0, 84.0),
    country!("NZ", "New Zealand", -41.0, 174.0),
    country!("OM", "Oman", 21.0, 57.0),
    country!("PA", "Panama", 9.0, -80.0),
    country!("PE", "Peru", -10.0, -76.0),
    country!("PG", "Papua New Guinea", -6.0, 147.0),
    country!("PH", "Philippines", 13.0, 122.0),
    country!("PK", "Pakistan", 30.0, 70.0),
    country!("PL", "Poland", 52.0, 20.0),
    country!("PS", "Palestine", 31.9, 35.2),
    country!("PT", "Portugal", 39.5, -8.0),
    country!("PY", "Paraguay", -23.0, -58.0),
    country!("QA", "Qatar", 25.5, 51.25),
    country!("RO", "Romania", 46.0, 25.0),
    country!("RS", "Serbia", 44.0, 21.0),
    country!("RU", "Russia", 60.0, 100.0),
    country!("RW", "Rwanda", -2.0, 30.0),
    country!("SA", "Saudi Arabia", 25.0, 45.0),
    country!("SB", "Solomon Islands", -8.0, 159.0),
    country!("SC", "Seychelles", -4.58, 55.67),
    country!("SD", "Sudan", 15.0, 30.0),
    country!("SE", "Sweden", 62.0, 15.0),
    country!("SG", "Singapore", 1.37, 103.8),
    country!("SI", "Slovenia", 46.1, 14.8),
    country!("SK", "Slovakia", 48.7, 19.5),
    country!("SL", "Sierra Leone", 8.5, -11.5),
    country!("SN", "Senegal", 14.0, -14.0),
    country!("SO", "Somalia", 10.0, 49.0),
    country!("SR", "Suriname", 4.0, -56.0),
    country!("ST", "Sao Tome and Principe", 1.0, 7.0),
    country!("SV", "El Salvador", 13.8, -88.9),
    country!("SY", "Syria", 35.0, 38.0),
    country!("SZ", "Eswatini", -26.5, 31.5),
    country!("TD", "Chad", 15.0, 19.0),
    country!("TG", "Togo", 8.0, 1.17),
    country!("TH", "Thailand", 15.0, 100.0),
    country!("TJ", "Tajikistan", 39.0, 71.0),
    country!("TL", "Timor-Leste", -8.8, 125.9),
    country!("TM", "Turkmenistan", 40.0, 60.0),
    country!("TN", "Tunisia", 34.0, 9.0),
    country!("TO", "Tonga", -20.0, -175.0),
    country!("TR", "Turkey", 39.0, 35.0),
    country!("TT", "Trinidad and Tobago", 10.5, -61.3),
    country!("TW", "Taiwan", 23.5, 121.0),
    country!("TZ", "Tanzania", -6.0, 35.0),
    country!("UA", "Ukraine", 49.0, 32.0),
    country!("UG", "Uganda", 1.0, 32.0),
    country!("US", "United States", 38.0, -97.0),
    country!("UY", "Uruguay", -33.0, -56.0),
    country!("UZ", "Uzbekistan", 41.0, 64.0),
    country!("VE", "Venezuela", 8.0, -66.0),
    country!("VN", "Vietnam", 16.0, 108.0),
    country!("VU", "Vanuatu", -16.0, 167.0),
    country!("WS", "Samoa", -13.6, -172.3),
    country!("YE", "Yemen", 15.0, 48.0),
    country!("ZA", "South Africa", -29.0, 24.0),
    country!("ZM", "Zambia", -15.0, 30.0),
    country!("ZW", "Zimbabwe", -19.0, 30.0),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn has_181_countries() {
        assert_eq!(all_countries().len(), 181);
    }

    #[test]
    fn codes_are_unique_and_uppercase() {
        let mut seen = HashSet::new();
        for c in all_countries() {
            assert_eq!(c.code.len(), 2);
            assert_eq!(c.code, c.code.to_ascii_uppercase());
            assert!(seen.insert(c.code), "duplicate code {}", c.code);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = HashSet::new();
        for c in all_countries() {
            assert!(seen.insert(c.name), "duplicate name {}", c.name);
        }
    }

    #[test]
    fn coordinates_in_range() {
        for c in all_countries() {
            assert!(c.lat >= -90.0 && c.lat <= 90.0, "{}", c.code);
            assert!(c.lon >= -180.0 && c.lon <= 180.0, "{}", c.code);
        }
    }

    #[test]
    fn lookup_by_code_and_name() {
        assert_eq!(by_code("gr").unwrap().name, "Greece");
        assert_eq!(by_code("GR").unwrap().name, "Greece");
        assert_eq!(by_name("zimbabwe").unwrap().code, "ZW");
        assert!(by_code("XX").is_none());
        assert!(by_name("Atlantis").is_none());
    }

    #[test]
    fn geostamps_are_valid() {
        for c in all_countries() {
            let g = c.geostamp();
            assert_eq!(g.lat, c.lat);
            assert_eq!(g.lon, c.lon);
        }
    }

    #[test]
    fn specific_countries_present_for_major_events() {
        // Countries referenced by the Major Events List of the paper.
        for name in [
            "United States",
            "Zimbabwe",
            "Madagascar",
            "Peru",
            "Honduras",
            "Guinea-Bissau",
            "Comoros",
            "Somalia",
            "Australia",
            "France",
            "Brazil",
            "Israel",
            "DR Congo",
        ] {
            assert!(by_name(name).is_some(), "missing {name}");
        }
    }
}
