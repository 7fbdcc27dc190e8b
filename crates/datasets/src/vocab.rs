//! Shared word lists used by the dataset generators.
//!
//! The lists double as the "knowledge base" for the KATARA-style strategy
//! in `etsb-raha` (the paper's Raha baseline consults DBpedia; our
//! substitution consults these domain dictionaries — see DESIGN.md §5).

/// US city / state pairs; the (city → state) functional dependency is what
/// Beers and Tax violate with their VAD errors.
pub const CITY_STATE: &[(&str, &str)] = &[
    ("San Diego", "CA"),
    ("San Francisco", "CA"),
    ("Los Angeles", "CA"),
    ("Portland", "OR"),
    ("Eugene", "OR"),
    ("Seattle", "WA"),
    ("Spokane", "WA"),
    ("Denver", "CO"),
    ("Boulder", "CO"),
    ("Austin", "TX"),
    ("Houston", "TX"),
    ("Dallas", "TX"),
    ("Chicago", "IL"),
    ("Springfield", "IL"),
    ("Boston", "MA"),
    ("Cambridge", "MA"),
    ("New York", "NY"),
    ("Buffalo", "NY"),
    ("Miami", "FL"),
    ("Orlando", "FL"),
    ("Atlanta", "GA"),
    ("Savannah", "GA"),
    ("Phoenix", "AZ"),
    ("Tucson", "AZ"),
    ("Nashville", "TN"),
    ("Memphis", "TN"),
    ("Birmingham", "AL"),
    ("Montgomery", "AL"),
    ("Detroit", "MI"),
    ("Ann Arbor", "MI"),
    ("Cleveland", "OH"),
    ("Columbus", "OH"),
    ("Philadelphia", "PA"),
    ("Pittsburgh", "PA"),
    ("Baltimore", "MD"),
    ("Annapolis", "MD"),
    ("Richmond", "VA"),
    ("Norfolk", "VA"),
    ("Milwaukee", "WI"),
    ("Madison", "WI"),
];

/// First names for Tax and Rayyan authors.
pub const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "John",
    "Patricia",
    "Robert",
    "Jennifer",
    "Michael",
    "Linda",
    "William",
    "Elizabeth",
    "David",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Christopher",
    "Nancy",
    "Daniel",
    "Lisa",
    "Matthew",
    "Betty",
    "Anthony",
    "Margaret",
    "Mark",
    "Sandra",
    "Donald",
    "Ashley",
    "Steven",
    "Kimberly",
    "Paul",
    "Emily",
    "Andrew",
    "Donna",
    "Joshua",
    "Michelle",
    "Jun'ichi",
    "Kenji",
    "Akiko",
    "Wei",
    "Ling",
];

/// Last names for Tax and Rayyan authors.
pub const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
    "O'Brien",
    "O'Connor",
    "McDonald",
];

/// Beer style names (Beers dataset).
pub const BEER_STYLES: &[&str] = &[
    "American IPA",
    "American Pale Ale (APA)",
    "American Amber / Red Ale",
    "American Blonde Ale",
    "American Double / Imperial IPA",
    "American Porter",
    "American Stout",
    "American Brown Ale",
    "Belgian Pale Ale",
    "Saison / Farmhouse Ale",
    "Hefeweizen",
    "Witbier",
    "Kolsch",
    "Fruit / Vegetable Beer",
    "Scotch Ale / Wee Heavy",
    "Oatmeal Stout",
    "Milk / Sweet Stout",
    "Extra Special / Strong Bitter (ESB)",
    "English Brown Ale",
    "Cream Ale",
];

/// Brewery name fragments (combined pairwise).
pub const BREWERY_WORDS: &[&str] = &[
    "Anchor",
    "Cascade",
    "Summit",
    "Ironworks",
    "Granite",
    "River",
    "Harbor",
    "Canyon",
    "Redwood",
    "Frontier",
    "Prairie",
    "Lighthouse",
    "Timber",
    "Copper",
    "Eagle",
    "Falcon",
    "Juniper",
    "Alpine",
    "Mesa",
    "Bluff",
];

/// Second half of brewery names.
pub const BREWERY_SUFFIXES: &[&str] = &[
    "Brewing Company",
    "Brewery",
    "Beer Co.",
    "Brewing Co.",
    "Ales",
    "Brewhouse",
];

/// Beer name fragments.
pub const BEER_WORDS: &[&str] = &[
    "Hoppy", "Golden", "Amber", "Midnight", "Summer", "Winter", "Wild", "Lucky", "Rusty", "Smoky",
    "Velvet", "Crimson", "Nordic", "Coastal", "Valley", "Sunset", "Harvest", "Frost", "Thunder",
    "Quiet",
];

/// Nouns completing beer names.
pub const BEER_NOUNS: &[&str] = &[
    "Trail", "Fox", "Badger", "Session", "Anthem", "Harvest", "Haze", "Peak", "Drifter", "Lantern",
    "Compass", "Meadow", "Falls", "Hollow", "Ridge", "Otter",
];

/// Airline codes (Flights dataset).
pub const AIRLINES: &[&str] = &["AA", "UA", "DL", "WN", "B6", "AS", "NK", "F9"];

/// Airport codes (Flights dataset).
pub const AIRPORTS: &[&str] = &[
    "JFK", "SFO", "LAX", "ORD", "DFW", "DEN", "SEA", "ATL", "BOS", "MIA", "PHX", "IAH", "EWR",
    "MSP", "DTW", "PHL", "LGA", "BWI", "SLC", "SAN",
];

/// Flight-information sources (Flights dataset).
pub const FLIGHT_SOURCES: &[&str] = &[
    "aa",
    "airtravelcenter",
    "allegiantair",
    "boston",
    "businesstravellogue",
    "CO",
    "dfw",
    "flightarrivals",
    "flightaware",
    "flightexplorer",
    "flightstats",
    "flightview",
    "flightwise",
    "flylouisville",
    "flytecomm",
    "foxbusiness",
    "gofox",
    "helloflight",
    "iad",
    "ifly",
    "mia",
    "mytripandmore",
    "orbitz",
    "ord",
    "panynj",
    "phl",
    "quicktrip",
    "travelocity",
    "usatoday",
    "weather",
    "world-flight-tracker",
    "wunderground",
];

/// Hospital measure descriptions (Hospital dataset).
pub const HOSPITAL_MEASURES: &[&str] = &[
    "heart attack patients given aspirin at arrival",
    "heart attack patients given aspirin at discharge",
    "heart attack patients given beta blocker at arrival",
    "heart attack patients given beta blocker at discharge",
    "heart failure patients given ace inhibitor or arb for lvsd",
    "heart failure patients given an evaluation of left ventricular systolic function",
    "heart failure patients given discharge instructions",
    "pneumonia patients given initial antibiotic within 6 hours after arrival",
    "pneumonia patients given the most appropriate initial antibiotic",
    "pneumonia patients whose initial emergency room blood culture was performed prior",
    "surgery patients who were given an antibiotic at the right time",
    "surgery patients whose preventive antibiotics were stopped at the right time",
    "surgery patients needing hair removed from the surgical area before surgery",
    "patients who got treatment at the right time to help prevent blood clots",
    "heart attack patients given smoking cessation advice",
    "heart failure patients given smoking cessation advice",
    "pneumonia patients given smoking cessation advice",
    "pneumonia patients assessed and given pneumococcal vaccination",
    "all heart surgery patients whose blood sugar is kept under good control",
    "surgery patients whose doctors ordered treatments to prevent blood clots",
];

/// Hospital names (Hospital dataset).
pub const HOSPITAL_NAMES: &[&str] = &[
    "callahan eye foundation hospital",
    "marshall medical center south",
    "eliza coffee memorial hospital",
    "mizell memorial hospital",
    "crenshaw community hospital",
    "marshall medical center north",
    "st vincents east",
    "dekalb regional medical center",
    "shelby baptist medical center",
    "cullman regional medical center",
    "thomas hospital",
    "andalusia regional hospital",
    "cherokee medical center",
    "hartselle medical center",
    "huntsville hospital",
    "jackson hospital and clinic",
    "gadsden regional medical center",
    "riverview regional medical center",
    "community hospital inc",
    "wedowee hospital",
];

/// Condition categories (Hospital dataset).
pub const HOSPITAL_CONDITIONS: &[&str] = &[
    "heart attack",
    "heart failure",
    "pneumonia",
    "surgical infection prevention",
];

/// Movie title fragments (Movies dataset).
pub const MOVIE_WORDS: &[&str] = &[
    "Midnight",
    "Crimson",
    "Forgotten",
    "Silent",
    "Electric",
    "Golden",
    "Shattered",
    "Hidden",
    "Burning",
    "Frozen",
    "Savage",
    "Gentle",
    "Distant",
    "Broken",
    "Rising",
    "Falling",
    "Eternal",
    "Final",
    "First",
    "Lost",
    "Lucky",
    "Paper",
    "Glass",
    "Iron",
    "Velvet",
    "Neon",
];

/// Movie title nouns.
pub const MOVIE_NOUNS: &[&str] = &[
    "Empire",
    "Garden",
    "Promise",
    "Horizon",
    "Symphony",
    "Voyage",
    "Kingdom",
    "Echo",
    "Shadow",
    "River",
    "Mirror",
    "Harvest",
    "Tempest",
    "Lantern",
    "Crossing",
    "Covenant",
    "Reckoning",
    "Odyssey",
    "Carnival",
    "Labyrinth",
];

/// Movie genres.
pub const MOVIE_GENRES: &[&str] = &[
    "Drama",
    "Comedy",
    "Action",
    "Thriller",
    "Romance",
    "Horror",
    "Science Fiction",
    "Documentary",
    "Animation",
    "Crime",
    "Adventure",
    "Fantasy",
    "Mystery",
    "Western",
];

/// Director/creator names (Movies dataset) — includes the multi-part
/// credits whose partial loss §5.5 describes.
pub const MOVIE_CREATORS: &[&str] = &[
    "Roger Kumble",
    "Choderlos de Laclos, Roger Kumble",
    "Sofia Marchetti",
    "Akira Tanaka, Sofia Marchetti",
    "Len Wiseman",
    "Kurt Wimmer, Len Wiseman",
    "Jane Doe",
    "María Álvarez",
    "François Truffaud",
    "Björn Askelsson",
    "Paweł Kowalski",
    "José García, Ana López",
    "Renée Dubois",
    "Søren Kierkegaardsen",
    "Zoë Quinn",
    "Héctor Ramírez",
];

/// Journal titles (Rayyan dataset).
pub const JOURNALS: &[&str] = &[
    "The Lancet",
    "Journal of Clinical Oncology",
    "New England Journal of Medicine",
    "Annals of Internal Medicine",
    "British Medical Journal",
    "Cochrane Database of Systematic Reviews",
    "Journal of the American Medical Association",
    "Pediatrics",
    "Critical Care Medicine",
    "Journal of Epidemiology & Community Health",
    "American Journal of Public Health",
    "Clinical Infectious Diseases",
    "Archives of Internal Medicine",
    "European Heart Journal",
    "Diabetes Care",
];

/// Scientific article title fragments (Rayyan dataset).
pub const ARTICLE_WORDS: &[&str] = &[
    "randomized",
    "controlled",
    "trial",
    "systematic",
    "review",
    "meta-analysis",
    "cohort",
    "efficacy",
    "safety",
    "treatment",
    "intervention",
    "outcomes",
    "prevalence",
    "incidence",
    "screening",
    "therapy",
    "diagnosis",
    "management",
    "prevention",
    "mortality",
    "morbidity",
    "double-blind",
    "placebo",
    "follow-up",
    "risk",
    "factors",
];

/// Month abbreviations used by Rayyan's date formats.
pub const MONTHS_ABBR: &[&str] = &[
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Uniformly pick one entry from a non-empty list.
///
/// Centralizes the generators' vocabulary sampling so the non-emptiness
/// argument lives in exactly one place: every list in this module (and
/// every ad-hoc list the generators pass) is a non-empty literal.
#[allow(clippy::expect_used, reason = "callers pass non-empty literal lists")]
pub fn pick<'a, T, R: rand::Rng>(rng: &mut R, list: &'a [T]) -> &'a T {
    use rand::seq::SliceRandom;
    list.choose(rng).expect("vocab::pick: empty list")
}
