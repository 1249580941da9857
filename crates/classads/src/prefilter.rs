//! The (job, machine) pairs a literal `Requirements` pre-filter would have
//! to judge. The negotiator keeps no such filter: every pair goes through
//! [`crate::eval`], so these tests pin the evaluator's verdict on each case
//! a filter gets wrong most easily.

mod tests {
    use crate::eval::half_match;
    use crate::ClassAd;

    fn job(requirements: &str) -> ClassAd {
        ClassAd::new()
            .with("ImageSize", 32i64)
            .with_parsed("Requirements", requirements)
    }

    #[test]
    fn rejects_wrong_literal_and_keeps_right_one() {
        let j = job("TARGET.Arch == \"INTEL\" && TARGET.Memory >= 64");
        let good = ClassAd::new().with("Arch", "INTEL").with("Memory", 128i64);
        let wrong_arch = ClassAd::new().with("Arch", "SPARC").with("Memory", 128i64);
        let small = ClassAd::new().with("Arch", "INTEL").with("Memory", 16i64);
        assert!(half_match(&j, &good));
        assert!(!half_match(&j, &wrong_arch));
        assert!(!half_match(&j, &small));
    }

    #[test]
    fn missing_attribute_rejects() {
        // An UNDEFINED conjunct can never become true.
        let j = job("TARGET.Arch == \"INTEL\"");
        let bare = ClassAd::new().with("Memory", 128i64);
        assert!(!half_match(&j, &bare));
    }

    #[test]
    fn computed_attribute_is_inconclusive() {
        // A computed attribute has no literal to compare against; only
        // evaluating it decides the pair.
        let j = job("TARGET.Memory >= 64");
        let computed = ClassAd::new()
            .with("Base", 32i64)
            .with_parsed("Memory", "Base * 4");
        assert!(half_match(&j, &computed));
        let computed_small = ClassAd::new()
            .with("Base", 8i64)
            .with_parsed("Memory", "Base * 4");
        assert!(!half_match(&j, &computed_small));
    }

    #[test]
    fn my_and_shadowed_references_are_not_extracted() {
        // MY.-scoped and owner-shadowed unqualified names describe the job,
        // never the candidate: the candidate's Memory changes nothing.
        let j = ClassAd::new()
            .with("Memory", 4i64)
            .with_parsed("Requirements", "MY.ImageSize < 64 && Memory > 1000");
        let big = ClassAd::new()
            .with("ImageSize", 1i64)
            .with("Memory", 2048i64);
        assert!(!half_match(&j, &big));
        let shadowing = ClassAd::new()
            .with("ImageSize", 32i64)
            .with("Memory", 2048i64)
            .with_parsed("Requirements", "MY.ImageSize < 64 && Memory > 1000");
        let small = ClassAd::new().with("Memory", 128i64);
        assert!(half_match(&shadowing, &small));
        // An unqualified name absent from the job resolves in the candidate.
        let k = ClassAd::new().with_parsed("Requirements", "Memory > 1000");
        assert!(!half_match(&k, &small));
        assert!(half_match(&k, &big));
    }

    #[test]
    fn reversed_operand_order_is_preserved() {
        let j = job("64 <= TARGET.Memory");
        let big = ClassAd::new().with("Memory", 128i64);
        let small = ClassAd::new().with("Memory", 16i64);
        assert!(half_match(&j, &big));
        assert!(!half_match(&j, &small));
    }

    #[test]
    fn non_conjunctive_requirements_reject_nothing() {
        // With || at the top level no single comparison is necessary.
        let j = job("TARGET.Arch == \"INTEL\" || TARGET.Arch == \"SPARC\"");
        let sparc = ClassAd::new().with("Arch", "SPARC");
        let intel = ClassAd::new().with("Arch", "INTEL");
        let alpha = ClassAd::new().with("Arch", "ALPHA");
        assert!(half_match(&j, &sparc));
        assert!(half_match(&j, &intel));
        assert!(!half_match(&j, &alpha));
    }

    #[test]
    fn type_mismatch_comparison_rejects_like_the_evaluator() {
        // 128 == "lots" is ERROR, not false, so neither == nor != holds.
        let m = ClassAd::new().with("Memory", 128i64);
        assert!(!half_match(&job("TARGET.Memory == \"lots\""), &m));
        assert!(!half_match(&job("TARGET.Memory != \"lots\""), &m));
    }
}
