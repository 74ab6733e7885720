package sim

import "testing"

func TestFaultModelValidate(t *testing.T) {
	cases := []struct {
		name string
		m    FaultModel
		ok   bool
	}{
		{"zero", FaultModel{}, true},
		{"crash only", FaultModel{MTBF: 100}, true},
		{"crash and repair", FaultModel{MTBF: 100, MeanRepair: 10}, true},
		{"links", FaultModel{LinkMTBF: 50, MeanOutage: 5}, true},
		{"negative mtbf", FaultModel{MTBF: -1}, false},
		{"negative repair", FaultModel{MeanRepair: -2}, false},
		{"outage without mean", FaultModel{LinkMTBF: 50}, false},
		{"negative outage", FaultModel{LinkMTBF: 50, MeanOutage: -1}, false},
	}
	for _, tc := range cases {
		err := tc.m.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}
