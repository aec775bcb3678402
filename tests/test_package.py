import fraclap


class TestPublicApi:
    def test_all_has_no_duplicates(self):
        assert len(fraclap.__all__) == len(set(fraclap.__all__))

    def test_every_name_resolves(self):
        missing = [name for name in fraclap.__all__ if not hasattr(fraclap, name)]
        assert missing == []

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from fraclap import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(fraclap.__all__)
