package spec

import (
	"math"
	"strconv"
	"strings"

	"a64fxbench/internal/units"
)

// Quantity fields in a spec are strings of the form "<value> <unit>"
// ("210 GB/s", "35.75 MiB", "300 ns"). Each kind has a closed unit set;
// a bad or missing unit is a FieldError naming the field and the valid
// units. Decimal prefixes for rates (as vendors quote them), binary
// prefixes for capacities.

type unitDef struct {
	name   string
	factor float64
}

var (
	byteRateUnits = []unitDef{
		{"B/s", 1}, {"MB/s", 1e6}, {"GB/s", 1e9}, {"TB/s", 1e12},
	}
	flopRateUnits = []unitDef{
		{"F/s", 1}, {"MF/s", 1e6}, {"GF/s", 1e9}, {"TF/s", 1e12},
	}
	sizeUnits = []unitDef{
		{"B", 1}, {"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40},
	}
	durationUnits = []unitDef{
		{"ns", 1}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9},
	}
)

func unitNames(defs []unitDef) string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return strings.Join(names, " ")
}

// parseQuantity parses "<value> <unit>" against a unit table, returning
// the value scaled to the base unit.
func parseQuantity(path, s string, defs []unitDef) (float64, error) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return 0, fieldErrf(path, "want %q, e.g. %q (valid units: %s)",
			"<value> <unit>", "42 "+defs[len(defs)-2].name, unitNames(defs))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fieldErrf(path, "bad value %q: want a finite decimal number", fields[0])
	}
	for _, d := range defs {
		if fields[1] == d.name {
			return v * d.factor, nil
		}
	}
	return 0, fieldErrf(path, "bad unit %q (valid: %s)", fields[1], unitNames(defs))
}

// parseByteRate parses a bandwidth like "210 GB/s".
func parseByteRate(path, s string) (units.ByteRate, error) {
	v, err := parseQuantity(path, s, byteRateUnits)
	return units.ByteRate(v), err
}

// parseFlopRate parses a flop rate like "3379 GF/s".
func parseFlopRate(path, s string) (units.FlopRate, error) {
	v, err := parseQuantity(path, s, flopRateUnits)
	return units.FlopRate(v), err
}

// parseSize parses a capacity like "8 GiB", rounding to whole bytes.
func parseSize(path, s string) (units.Bytes, error) {
	v, err := parseQuantity(path, s, sizeUnits)
	if err != nil {
		return 0, err
	}
	if v > float64(math.MaxInt64) {
		return 0, fieldErrf(path, "size %q overflows", s)
	}
	return units.Bytes(math.Round(v)), nil
}

// parseDuration parses a duration like "300 ns", rounding to whole
// nanoseconds.
func parseDuration(path, s string) (units.Duration, error) {
	v, err := parseQuantity(path, s, durationUnits)
	if err != nil {
		return 0, err
	}
	if v > float64(math.MaxInt64) {
		return 0, fieldErrf(path, "duration %q overflows", s)
	}
	return units.Duration(math.Round(v)), nil
}

// formatQuantity renders a base-unit value in the largest unit that
// keeps it ≥ 1, with shortest-round-trip precision so parsing the
// string recovers value×factor exactly in the common cases.
func formatQuantity(v float64, defs []unitDef) string {
	best := defs[0]
	for _, d := range defs {
		if v >= d.factor {
			best = d
		}
	}
	return strconv.FormatFloat(v/best.factor, 'g', -1, 64) + " " + best.name
}

// FormatByteRate renders a bandwidth as a spec quantity string.
func FormatByteRate(r units.ByteRate) string {
	return formatQuantity(float64(r), byteRateUnits)
}

// FormatFlopRate renders a flop rate as a spec quantity string.
func FormatFlopRate(r units.FlopRate) string {
	return formatQuantity(float64(r), flopRateUnits)
}

// FormatDuration renders a duration as a spec quantity string.
func FormatDuration(d units.Duration) string {
	return formatQuantity(float64(d), durationUnits)
}
