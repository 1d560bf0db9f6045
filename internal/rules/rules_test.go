package rules

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
)

func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

func mustMine(t *testing.T) *apriori.Result {
	t.Helper()
	res, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateKnownRule(t *testing.T) {
	res := mustMine(t)
	rules, err := Generate(res, 0.9, classicDB().Len())
	if err != nil {
		t.Fatal(err)
	}
	// sup({1,5}) = sup({1,2,5}) = 2, so {1,5} => {2} has confidence 1.0.
	found := false
	for _, r := range rules {
		if r.Antecedent.Equal(itemset.New(1, 5)) && r.Consequent.Equal(itemset.New(2)) {
			found = true
			if r.Confidence != 1.0 {
				t.Errorf("confidence = %v", r.Confidence)
			}
			// lift = 1.0 / (7/9)
			if math.Abs(r.Lift-9.0/7.0) > 1e-12 {
				t.Errorf("lift = %v", r.Lift)
			}
			if r.Support != 2 {
				t.Errorf("support = %d", r.Support)
			}
		}
	}
	if !found {
		t.Fatalf("rule {1 5} => {2} missing from %v", rules)
	}
}

func TestGenerateSortedAndThresholded(t *testing.T) {
	res := mustMine(t)
	rules, err := Generate(res, 0.5, classicDB().Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules at 0.5 confidence")
	}
	for i := 1; i < len(rules); i++ {
		if rules[i-1].Confidence < rules[i].Confidence {
			t.Fatal("rules not sorted by descending confidence")
		}
	}
	for _, r := range rules {
		if r.Confidence < 0.5 {
			t.Fatalf("rule below threshold: %v", r)
		}
	}
	// Lower thresholds can only add rules.
	more, err := Generate(res, 0.1, classicDB().Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(more) < len(rules) {
		t.Fatalf("lowering threshold lost rules: %d -> %d", len(rules), len(more))
	}
}

func TestGenerateInvalid(t *testing.T) {
	res := mustMine(t)
	if _, err := Generate(res, -0.1, 9); err == nil {
		t.Error("negative confidence accepted")
	}
	if _, err := Generate(res, 1.1, 9); err == nil {
		t.Error("confidence > 1 accepted")
	}
	if _, err := Generate(res, 0.5, 0); err == nil {
		t.Error("zero transactions accepted")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: itemset.New(1, 2), Consequent: itemset.New(3),
		Support: 5, Confidence: 0.832, Lift: 1.25,
	}
	if got := r.String(); got != "{1 2} => {3} (sup=5 conf=0.83 lift=1.25)" {
		t.Fatalf("String = %q", got)
	}
}

// Property: on random databases, every generated rule's measures match
// direct counting, and rule support/confidence definitions hold exactly.
func TestGenerateMeasuresExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]itemset.Item, rng.Intn(20)+8)
		for i := range rows {
			n := rng.Intn(4) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(6)))
			}
		}
		db := itemset.NewDB("rand", rows)
		res, err := apriori.Mine(db, 0.2, apriori.Options{})
		if err != nil {
			return false
		}
		rls, err := Generate(res, 0.3, db.Len())
		if err != nil {
			return false
		}
		count := func(s itemset.Itemset) int {
			n := 0
			for _, tr := range db.Transactions {
				if tr.Items.ContainsAll(s) {
					n++
				}
			}
			return n
		}
		for _, r := range rls {
			union := itemset.New(append(r.Antecedent.Clone(), r.Consequent...)...)
			supU, supA, supC := count(union), count(r.Antecedent), count(r.Consequent)
			if r.Support != supU {
				return false
			}
			if math.Abs(r.Confidence-float64(supU)/float64(supA)) > 1e-12 {
				return false
			}
			wantLift := (float64(supU) / float64(supA)) / (float64(supC) / float64(db.Len()))
			if math.Abs(r.Lift-wantLift) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLeverageAndConviction(t *testing.T) {
	res := mustMine(t)
	rules, err := Generate(res, 0.5, classicDB().Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Confidence == 1.0 && !math.IsInf(r.Conviction, 1) {
			t.Errorf("exact rule %v has finite conviction %v", r, r.Conviction)
		}
		if r.Confidence < 1.0 && (r.Conviction <= 0 || math.IsInf(r.Conviction, 0)) {
			t.Errorf("rule %v has conviction %v", r, r.Conviction)
		}
		// Leverage and lift must agree on the direction of correlation.
		if (r.Lift > 1) != (r.Leverage > 0) && r.Lift != 1 {
			t.Errorf("rule %v: lift %v vs leverage %v disagree", r, r.Lift, r.Leverage)
		}
	}
}
