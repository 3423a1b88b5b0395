import pytest

from mlnpose.skeleton import Keypoint, Person, SkeletonDef, Visibility, default_skeleton
from oracles import validate_person


class TestDefaultSkeleton:
    def test_counts(self):
        sk = default_skeleton()
        assert sk.num_joints == 18
        assert sk.num_limbs == 19
        assert sk.joint_map_channels == 19
        assert sk.limb_map_channels == 38

    def test_every_joint_in_some_limb(self):
        sk = default_skeleton()
        touched = {j for limb in sk.limbs for j in limb}
        assert touched == set(range(18))

    def test_left_right_disjoint(self):
        sk = default_skeleton()
        for name in sk.joint_names:
            if name.startswith("right_"):
                assert "left_" + name[len("right_"):] in sk.joint_names

    def test_config_round_trip(self):
        sk = default_skeleton()
        again = SkeletonDef.from_config(sk.to_config())
        assert again == sk


class TestSkeletonValidation:
    def test_out_of_range_limb(self):
        with pytest.raises(ValueError):
            SkeletonDef(("a", "b"), ((0, 2),))

    def test_duplicate_limb(self):
        with pytest.raises(ValueError):
            SkeletonDef(("a", "b", "c"), ((0, 1), (0, 1), (1, 2)))

    @pytest.mark.parametrize("build", [
        lambda: SkeletonDef(("a", "b"), ((0, 0), (0, 1))),
        lambda: SkeletonDef.from_config({"joint_names": ["a", "b"], "limbs": [[0, 1], [1, 1]]}),
    ], ids=["direct", "from_config"])
    def test_limb_joining_a_joint_to_itself(self, build):
        with pytest.raises(ValueError, match=r"limbs\[\d\] must be two different joints"):
            build()

    def test_disconnected_limb_graph(self):
        with pytest.raises(ValueError):
            SkeletonDef(("a", "b", "c", "d"), ((0, 1), (2, 3)))

    def test_minimal_valid(self):
        sk = SkeletonDef(("a", "b"), ((0, 1),), background_channel=False)
        assert sk.joint_map_channels == 2
        assert sk.limb_map_channels == 2


class TestPerson:
    def test_labeled_count(self):
        p = Person([Keypoint(1, 2), None, Keypoint(3, 4, Visibility.OCCLUDED)])
        assert p.labeled_count() == 2


class TestValidatePerson:
    def setup_method(self):
        self.sk = SkeletonDef(("a", "b"), ((0, 1),), background_channel=False)

    def test_ok(self):
        p = Person([Keypoint(5.0, 5.0), Keypoint(0.0, 10.0)])
        assert validate_person(p, self.sk, (10, 10)) == []

    def test_bounds_inclusive(self):
        p = Person([Keypoint(10.0, 10.0), Keypoint(0.0, 0.0)])
        assert validate_person(p, self.sk, (10, 10)) == []

    def test_out_of_bounds(self):
        p = Person([Keypoint(-0.1, 5.0), Keypoint(5.0, 10.1)])
        violations = validate_person(p, self.sk, (10, 10))
        assert sorted(v.joint_index for v in violations) == [0, 1]

    def test_bad_confidence(self):
        p = Person([Keypoint(1.0, 1.0, Visibility.VISIBLE, 1.5), None])
        violations = validate_person(p, self.sk, (10, 10))
        assert [v.joint_index for v in violations] == [0]

    def test_wrong_slot_count(self):
        violations = validate_person(Person([None]), self.sk, (10, 10))
        assert violations and violations[0].joint_index == -1

    def test_none_slots_allowed(self):
        assert validate_person(Person([None, None]), self.sk, (10, 10)) == []
