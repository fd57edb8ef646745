"""Session settings for the tests."""

from hypothesis import settings

# A failing @given test also prints a @reproduce_failure blob, so a failure
# seen once under a fresh seed can be replayed; every other setting keeps
# hypothesis's default or the test's own.
settings.register_profile("repo", print_blob=True)
settings.load_profile("repo")
