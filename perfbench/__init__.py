"""Seeded benchmark of the study campaign, the flow monitor and UPIN intents."""
