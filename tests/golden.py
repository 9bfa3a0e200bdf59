"""Frozen reference data for the test suite.

OEIS sequence prefixes plus values cross-computed once with independent
methods (brute-force simulation under several firing orders, direct
enumeration) and frozen here so the library is never checked against
itself.
"""

# The full arrival table for n=4: (index, y_min, values).
EXAMPLE_TABLE_N4 = (
    (0, 0, (16,)),
    (1, 0, (8, 8)),
    (2, 0, (4, 8, 4)),
    (3, 0, (2, 6, 6, 2)),
    (4, 0, (1, 4, 6, 4, 1)),
    (5, 1, (2, 5, 5, 2)),
    (6, 1, (1, 3, 4, 3, 1)),
    (7, 2, (1, 3, 3, 1)),
    (8, 3, (1, 2, 1)),
    (9, 4, (1, 1)),
)

# Distance distributions.
D4 = (2, 1, 2, 3, 0, 3, 2, 1, 2)
D15 = (
    545, 517, 489, 461, 433, 406, 380, 355, 332, 310,
    290, 271, 254, 253, 272, 282, 292, 300, 289, 309,
    312, 299, 353, 358, 389, 411, 425, 439, 474, 495,
    514, 437, 433, 427, 458, 426, 423, 407, 380, 360,
    321, 277, 232, 186, 108, 0, 108, 186, 232, 277,
    321, 360, 380, 407, 423, 426, 458, 427, 433, 437,
    514, 495, 474, 439, 425, 411, 389, 358, 353, 299,
    312, 309, 289, 300, 292, 282, 272, 253, 254, 271,
    290, 310, 332, 355, 380, 406, 433, 461, 489, 517,
    545,
)

# Sequence prefixes (see the OEIS ids in chipfire.sequences).
TOTAL_FIRINGS = (0, 1, 5, 15, 52, 163, 458, 1359, 4296, 12890, 38570)
NONZERO_ROWS = (1, 2, 4, 6, 10, 16, 24, 38, 60, 92, 144, 226, 362, 570, 906, 1430)
LONGEST_ROW_LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 15, 19, 24, 30, 37, 46, 58, 73)
MINIMAL_ROW_SUMS = (2, 4, 8, 12, 18, 24, 32, 40, 50)  # j = 1..9
HALF_NONZERO_ROWS_10 = (1, 2, 3, 5, 8, 12, 19, 30, 46, 72)  # n = 1..10

# Row-length profile pieces for n=9: lengths 1..10, these 13 midsection
# values, 57 rows alternating 12/13 starting at 12, then 13 down to 2.
N9_MIDSECTION_LENGTHS = (9, 10, 11, 10, 11, 10, 11, 12, 11, 12, 11, 12, 11)


def n9_profile() -> tuple[int, ...]:
    lengths = list(range(1, 11))
    lengths += list(N9_MIDSECTION_LENGTHS)
    lengths += [12 if k % 2 == 0 else 13 for k in range(57)]
    lengths += list(range(13, 1, -1))
    return tuple(lengths)


# Landmark rows for n=11.
N11_TOP_LAST = (1, 11, 55, 165, 330, 462, 462, 330, 165, 55, 11, 1)
N11_LONGEST = (
    1, 6, 18, 38, 66, 102, 143, 181, 208, 218,
    208, 181, 143, 102, 66, 38, 18, 6, 1,
)
N11_LONGEST_FIRST_INDEX = 48  # first row of length 19, frozen from a scan
N11_BOTTOM_FIRST = (1, 3, 5, 7, 9, 11, 13, 15, 17, 18, 17, 15, 13, 11, 9, 7, 5, 3, 1)

# First differences of the landmark rows.
N11_TOP_LAST_DIFF = (1, 10, 44, 110, 165, 132, 0, -132, -165, -110, -44, -10, -1)
N11_LONGEST_DIFF = (
    1, 5, 12, 20, 28, 36, 41, 38, 27, 10,
    -10, -27, -38, -41, -36, -28, -20, -12, -5, -1,
)
N11_BOTTOM_FIRST_DIFF = (
    1, 2, 2, 2, 2, 2, 2, 2, 2, 1,
    -1, -2, -2, -2, -2, -2, -2, -2, -2, -1,
)
N11_BOTTOM_FIRST_SIGNS = "+" + "0" * 7 + "---" + "0" * 7 + "+"


def diff_top_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Difference rows 1..5 of the table for ``2**n`` chips, n > 3."""
    q = 1 << (n - 4)
    return (
        (16 * q, -16 * q),
        (8 * q, 0, -8 * q),
        (4 * q, 4 * q, -4 * q, -4 * q),
        (2 * q, 4 * q, 0, -4 * q, -2 * q),
        (q, 3 * q, 2 * q, -2 * q, -3 * q, -q),
    )


def diff_max_prefix(n: int) -> tuple[int, ...]:
    """Largest absolute entries of difference rows 1..5, n > 3."""
    return (1 << n, 1 << (n - 1), 1 << (n - 2), 1 << (n - 2), 3 << (n - 4))


# sha256 of the stdout of `chipfire verify --n 0..10 --trials 3 --seed 0`,
# frozen from the list-based checks that the single-pass folds replaced.
VERIFY_SCORECARD_SHA256 = "077cd7d6e7feedf13eb63a4f8c464e2bef6f1394c2b6366222e8a500b5a45ffc"

# sha256 of the `row-profiles` SVG at the default size, frozen from the
# three-pass landmark scan.
ROW_PROFILES_SVG_SHA256 = {
    1: "50d788046f3b8e76c836f480f14fd3eb823ca7bc63daf407fb9dd1f7b3c17303",
    4: "fb5ab616ff8cdc588c973a4603f49c1254be95f5a84c0a7286c054dca425a520",
    11: "ecd8d561a54b6c6e44a8b58c5f9b94402d418c49deb8dd524a9a9f404aec39f6",
    14: "34905748769a59137fd4113a96f84b125c79bcdf041b0c7655024c3903f39660",
}

# sha256 of the `distance-polyline` and `diff-signmap` SVGs at the default
# size, frozen from the renderers that each kept their own scale code.  n = 0
# hits both floors: the distribution's peak of 1 and the sign map's u_max of 1.
FIGURE_SVG_SHA256 = {
    ("distance-polyline", 0): "f96ac0e91725895525264c599bd48e521c2862fd009735bc6ef83c4284c64618",
    ("distance-polyline", 4): "b0cfd64bd04b17a0c40ab5150c3e929e93b138d4c0c1edb35eab736982864079",
    ("distance-polyline", 9): "48eb6371be6dbc935ce8c65190d13d9ff948f5a952ff03247019f46affb814e7",
    ("diff-signmap", 0): "e2c68749564825e25caf3c6b156af929f409f3993d8aed38d7d1edbfbef00824",
    ("diff-signmap", 4): "d759e23af8cce9fec20efbedb038aaac6bb49345fe47da57b8009c3b80aa5afb",
    ("diff-signmap", 9): "d94fdc09f16dcd85f8766d480cd1b2977436b6a59e069954c6a3dd293c16c597",
}

# sha256 of the stdout of these commands (of the SVG file for `render`),
# frozen from the code that listed the whole stable configuration before
# writing it.
STABLE_OUTPUT_SHA256 = {
    "stable --n 12 --header": "7ff11d4fa271783f95b3630abf2ec1f5218baca937c1509beafc3d187cf18d90",
    "stable --n 12 --format json": "d7678469f57b87dd7fcc3507bc2ad8f8db262b157470f34fc3c10db1d330dfc4",
    "stable --n 0 --format json": "1cb3be0d082967f5269d28bd3dc430d7b3e31e54fe95d9389662e392012442ce",
    "stable --n 16 --format json": "9c77fc201c336bdcf296a713825a7aa0f90fe7a52e0d97902eb6734c28ea09fa",
    "distance --n 15 --format json": "ce50e3773aae0da6fc43dfba2f96fc5497fda0a099ec9ae02d1d7cfd3176e9fe",
    "render --kind stable-dots --n 9": "4bdef3532e8c4ad57f6c389f858db9ce948db9378d7fd699bfc1f16e212f4f14",
}

# sha256 of the stdout of these commands, frozen from the writer that joined
# str() of each entry and listed the whole table before writing its JSON.
ROW_OUTPUT_SHA256 = {
    "table --n 12 --header": "ac0321169741f1c6013d0aece945bdb87ee67c6dd399a4c25bd7eab142c8d064",
    "diff --n 12 --header": "2f1a415cfa905a5dfa6e22de495fa51655d395ea9fbb0684d72f1329a727aeef",
    "table --n 126 --max-rows 3": "bfafac110709ff3857ad7044afb12985779525888c8e12e16002e07dba7a93bd",
    "table --n 12 --format json": "3676344af6f6f856d967e967410a42f9b43da9c3b4fa684006d9d6678528ab27",
    "diff --n 9 --format json": "da37ca27d1ef395d801e96600f3fb0a88515eede79d5cfa7fb263947d62b2772",
    "table --n 126 --max-rows 3 --format json": "247af29ba4d327d4b64d0904649040593ffbadd4aa55db02d0716f348e5b5fa9",
    # The first two lines of `diff --n 3`, frozen when diff took --max-rows.
    "diff --n 3 --max-rows 2": "94f8f8df13dc1009a58803e918156741a047498beec1007f2e1c32983a3cd835",
}

# sha256 of repr() of the list of (x, y) points fired, in firing order, by
# `simulate(5, strategy, seed=3)`, frozen from the simulator that keyed its
# maps and heaps by (x, y) tuples.
ORACLE_ORDER_N5_SHA256 = {
    "random": "b9b8e6bb87190ccd38ec25e7c8dee93213718c39e63998c4253261065647cf2f",
    "leftmost-first": "b59febd5fdf2564f0cb14642b62a19a3d62690560462bb4c54c30f0306ac62a9",
    "fifo-queue": "3f96d4e48b0f0416058ecc412bf69d0ef3b496323099698e9e945138d40798c8",
    "row-by-row": "4cb2804df439c48616173551c768f41ef2a7cddab2e71add0392c32bcaf40f30",
}

# sha256 of the CLI's own text at COLUMNS=80, frozen from the parser that
# imported every command's module up front: stdout of each help command
# (exit 0), stderr of each usage error (exit 2).  `diff --help` was frozen
# again when diff took --max-rows.
CLI_TEXT_SHA256 = {
    "--help": "5799f8b6c5f557e1e26dca4839a85789968d35f74399ae4ddbe22c6d15e11a3f",
    "-h table": "5799f8b6c5f557e1e26dca4839a85789968d35f74399ae4ddbe22c6d15e11a3f",
    "table --help": "b369644c66a29cd6911ee9121c5df75dc3eb8358ff2e1e422a781012d2c3bb2d",
    "stable --help": "f228172abd689eb67f1adee1bd64a27ce24ad8dfef2f8e6bae33f6ad6202639d",
    "distance --help": "62897aa40bbdfa3d64f9e9dd65dfe742b3d06e6763fcfbd885d8b6c1bd42d04b",
    "firings --help": "564850b9c63668b8b4ecb6a0ebf492b7e3ff30b8c9ea9f32146648771413274f",
    "diff --help": "4a134fcad75b61792862a1b2db0957e3b37cf5d8372ee6cd5083f25fcf8a6118",
    "segment --help": "8aa90964fb89ff592dac73674d4babfd8a0be471ffae5dfaf00a05932c8ff52f",
    "sequences --help": "720f733b0379a4d71d65091bbf76c34ce656132bfa6aa8c730cdb080fbd40eb3",
    "verify --help": "a1b9f3f678a16e72a221b951c5eafd93cf67b0c4433e48538531e223952972d1",
    "render --help": "624cbd3ebda22b8bd6f92302638038f908787aa08a98643d480fd74dd24b509b",
    "": "9791c16a26f92fcd89626edd8e4019c1b28e188f04532110b917959b8d50ac22",
    "nonsense": "68dda6ed20b01f2f9d0702c262d9772872bba54bed170182abac3a1fdd032db2",
    "--bogus table --n 3": "8702d6f498cc511d7a004f8e01a42a51e9774ae24d8b6a2105f2ed30a65ff927",
    "table": "47068535c12288a9f87923afbb4844c0f0ceefa19c277984b2d7d48562d99f94",
    "stable --n 2 --format xml": "aceeae49e56a3fc06c5986a9034152ccb9ccaadb3a83f62c43fce5c3b76840b1",
    "distance --n 200": "0d6f06b3db1503e747b37ebdb4fc3e0b48ae6371b7161c3643abf09f64a321e3",
    "firings --n two": "28047b9c3a862c8bdeac54d5b28d772c875e14ceafc2b1376547dc3127ad2b23",
    "segment": "4abd39edf5061253c2fbdbef02962fc4e59c4a3176dbc39888ceb97c07cb120c",
    "sequences busy-beavers --upto 3": "648d9a4696ac442ed342ba4c41ff376e2f0f67a90f957078338ecef2fba9e2be",
    "verify --n 4..2": "0b341736796588b62ca07bd182fe74a4712778de85b836b72c2e472a1a132c5e",
    "render --kind mystery --n 2 --out x.svg": "08d2dbe1af58228811d6fd2cc264e140c324f309754755ac121d4449cd07c896",
    # Frozen from the parser that built every command's subparser on every
    # call: a command then a stray argument, an option before the command,
    # `--` before it and an unknown command.
    "table --n 3 extra": "4a519343b216b31027dfef7dc3e3ff73ed3bab68fcb29e1d77f986392b14c269",
    "--n 3 table": "114ada6bf03588b776381d01c77e118363dc43d8b1f3b83b0dfcb2ca01ede344",
    "-- table --n 3": "8b7a116ee39eece72d9b4d5f3690fa806a3d7d0c36ac50a9bb1edb10ba6aa88d",
    "bogus": "d5ddc57a8904c22d8b7c37753bef1d69f6fc446c8601be53968bac46fb9d8882",
}
